(* Static analysis: parsing, hazard rules, call graph, effect lattice,
   allocation budgets, static races. *)

open Test_helpers
module Lint = Mincut_analysis.Lint
module Srcread = Mincut_analysis.Srcread
module Callgraph = Mincut_analysis.Callgraph
module Effects = Mincut_analysis.Effects
module Allocheck = Mincut_analysis.Allocheck
module Exnflow = Mincut_analysis.Exnflow
module Resguard = Mincut_analysis.Resguard
module Astlint = Mincut_analysis.Astlint
module Stats = Mincut_util.Stats

let parse ?(file = "fixture.ml") src =
  match Srcread.parse_string ~file src with
  | Ok s -> s
  | Error e -> Alcotest.failf "fixture does not parse: %s (%d:%d)" e.Srcread.reason e.Srcread.eline e.Srcread.ecol

let hazard_rules src =
  List.map (fun f -> f.Lint.rule) (Astlint.hazards (parse src))

(* ---- hazards ------------------------------------------------------------ *)

let test_hazards_fire () =
  check_bool "hashtbl-hash" true
    (hazard_rules "let f x = Hashtbl.hash x" = [ "hashtbl-hash" ]);
  check_bool "poly-compare" true
    (hazard_rules "let c = compare 1 2" = [ "poly-compare" ]);
  check_bool "qualified poly-compare" true
    (hazard_rules "let c = Stdlib.compare 1 2" = [ "poly-compare" ]);
  check_bool "poly-equal section" true
    (hazard_rules "let mem xs x = List.exists (( = ) x) xs" = [ "poly-equal" ]);
  check_bool "unseeded random" true
    (hazard_rules "let r = Random.int 5" = [ "unseeded-random" ]);
  check_bool "obj magic" true
    (hazard_rules "let x = Obj.magic 0" = [ "obj-magic" ]);
  check_bool "catch-all" true
    (hazard_rules "let x = try f () with _ -> 0" = [ "catchall-exn" ]);
  check_bool "bare mutex" true
    (hazard_rules "let m = Mutex.create ()" = [ "bare-mutex" ]);
  check_bool "list-nth" true
    (hazard_rules "let x xs = List.nth xs 3" = [ "list-nth" ]);
  check_bool "float comparison" true
    (hazard_rules "let b x = x = 2.5" = [ "float-equal" ]);
  check_bool "negated float comparison" true
    (hazard_rules "let b x = x = -2.5" = [ "float-equal" ])

let test_hazards_scope_aware () =
  (* bindings are not applications in the Parsetree *)
  check_bool "float binding" true (hazard_rules "let x = 2.5" = []);
  check_bool "float binding with params" true
    (hazard_rules "let f () = 2.5" = []);
  check_bool "rec float binding" true
    (hazard_rules "let rec scale x = 0.5" = []);
  check_bool "record field float" true
    (hazard_rules "let r = { slack = 2.5 }" = []);
  check_bool "optional default float" true
    (hazard_rules "let f ?(eps = 1e-9) () = eps" = []);
  check_bool "comparison still fires" true
    (hazard_rules "let b x = if x = 2.5 then 1 else 0" = [ "float-equal" ]);
  check_bool "defining compare is fine" true
    (hazard_rules "let compare a b = Int.compare a b" = []);
  check_bool "punned ~compare label is fine" true
    (hazard_rules "let s compare xs = sort ~compare xs" = []);
  check_bool "typed comparator ascription is fine" true
    (hazard_rules "let c = (compare : int -> int -> int)" = []);
  check_bool "strings don't trip" true
    (hazard_rules {|let s = "Obj.magic compare Random.bool"|} = []);
  check_bool "match wildcard is fine" true
    (hazard_rules "let f x = match x with _ -> 0" = []);
  check_bool "comments don't trip" true
    (hazard_rules "(* never call Hashtbl.hash or Random.int here *) let x = 1"
    = []);
  check_bool "nested comments" true
    (hazard_rules "(* outer (* Random.int *) still comment *) let x = 1" = []);
  check_bool "typed handler is fine" true
    (hazard_rules "let x = try f () with Not_found -> 0" = []);
  check_bool "match inside try keeps its wildcard" true
    (hazard_rules "let x = try (match g () with _ -> 1) with Not_found -> 0"
    = []);
  check_bool "labelled ~compare:Int.compare is fine" true
    (hazard_rules "let m xs = sort ~compare:Int.compare xs" = []);
  check_bool "typed comparators are fine" true
    (hazard_rules "let xs ys = List.sort Int.compare ys" = []);
  check_bool "seeded rng is fine" true
    (hazard_rules "let r = Mincut_util.Rng.create 7" = []);
  check_bool "float equal, literal on the left" true
    (hazard_rules "let b y = 0.5 = y" = [ "float-equal" ]);
  check_bool "Float.equal is the fix, not a finding" true
    (hazard_rules "let b x = Float.equal x 1.0" = []);
  check_bool "int equality untouched" true (hazard_rules "let b x = x = 10" = []);
  check_bool "float arithmetic is not a comparison" true
    (hazard_rules "let pi = 4.0 *. atan 1.0\nlet area r = pi *. r *. r" = [])

let repo_sources () =
  (* tests run in _build/default/test; dune stages the sources one
     level up.  Absent staging (odd sandboxes), make no claim. *)
  let roots = List.filter Sys.file_exists [ "../lib"; "../bin" ] in
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc entry ->
          if String.length entry > 0 && entry.[0] = '.' then acc
          else walk acc (Filename.concat path entry))
        acc (Sys.readdir path)
    else if Filename.check_suffix path ".ml" then path :: acc
    else acc
  in
  List.fold_left walk [] roots |> List.sort String.compare

let test_repo_is_clean () =
  match repo_sources () with
  | [] -> ()
  | _ ->
      let r = Astlint.run [ "../lib"; "../bin" ] in
      check_bool "repo parses" true (r.Astlint.parse_errors = []);
      (* the only accepted findings are bare-mutex inside Lockcheck
         itself (the ranked-lock mechanism) and inside the parallel
         pool (whose Condition.wait and hand-over-hand unlocks
         Lockcheck.with_lock cannot express; DESIGN.md §14) — both
         allowlisted in .mincut-ast-allow *)
      List.iter
        (fun (f : Lint.finding) ->
          let basename = Filename.basename f.Lint.file in
          let in_parallel =
            Filename.basename (Filename.dirname f.Lint.file) = "parallel"
          in
          if
            not
              (f.Lint.rule = "bare-mutex"
              && (basename = "lockcheck.ml"
                 || (basename = "pool.ml" && in_parallel)))
          then
            Alcotest.failf "unexpected finding %s:%d %s: %s" f.Lint.file
              f.Lint.line f.Lint.rule f.Lint.message)
        (Astlint.findings r)

(* ---- reachability ------------------------------------------------------ *)

(* Library definitions no shipped program reaches that the tests keep on
   purpose: the reference oracles the solvers are checked against, and
   the inspectors that expose shipped state to assertions.  Whatever
   they call counts as reached too. *)
let test_only_keep =
  [
    (* oracles *)
    "Mincut_graph.Karger.contraction";
    "Mincut_graph.Karger.karger_stein";
    "Mincut_graph.Mincut_seq.brute_force";
    "Mincut_graph.Mincut_seq.is_valid_side";
    "Mincut_graph.All_min_cuts.exhaustive";
    "Mincut_graph.All_min_cuts.randomized";
    "Mincut_graph.All_min_cuts.canonical";
    "Mincut_graph.Mst_seq.prim";
    "Mincut_graph.Mst_seq.boruvka";
    "Mincut_graph.Mst_seq.tree_weight";
    "Mincut_graph.Mst_seq.is_spanning_tree";
    "Mincut_graph.Maxflow.min_cut_via_flow";
    "Mincut_graph.Nagamochi.certificate";
    "Mincut_core.One_respect_seq.naive_cuts";
    "Mincut_graph.Small_cuts.edge_connectivity_le2";
    "Mincut_treepack.Tree_packing.load_invariant";
    (* inspectors *)
    "Mincut_graph.Graph.equal_structure";
    "Mincut_serve.Cache.mem";
    "Mincut_serve.Cache.evictions";
    "Mincut_serve.Cache.keys_mru_first";
    "Mincut_serve.Metrics.counter_value";
    "Mincut_serve.Metrics.gauge_value";
    "Mincut_serve.Scheduler.depth";
    "Mincut_serve.Service.pending";
    "Mincut_parallel.Lockcheck.set_raise_on_inversion";
    "Mincut_parallel.Lockcheck.reset";
    "Mincut_analysis.Exnflow.raise_sets";
    "Mincut_store.Chunked_graph.total_weight";
    "Mincut_store.Chunked_graph.total_bytes";
    "Mincut_store.Chunked_graph.structural_hash";
    "Mincut_store.Chunked_graph.compute_structural_hash";
    "Mincut_store.Chunked_graph.weighted_degree";
    "Mincut_store.Chunked_graph.drop_resident";
    "Mincut_store.Chunked_graph.to_graph";
    "Mincut_util.Bitset.copy";
    "Mincut_graph.Generators.caterpillar";
  ]

(* Optional arguments of exported library values that no shipped
   program and no library code passes, kept on purpose, each with its
   reason.  Options of the [test_only_keep] oracles are exempt too:
   only tests call those at all. *)
let unpassed_option_keep =
  [
    ( ("Network_reference", "run", "cfg"),
      "the reference driver is the oracle for the engine's watchdog and \
       word-budget checks: the active-set test hands both drivers one config, \
       in plain and in sanitize mode, so its limits bind both alike" );
    ( ("One_respect", "lca_by_fragments", "target"),
      "tests vary the fragment size so LCAs across fragment boundaries are \
       exercised at every shape; shipped callers use the paper's ceil(sqrt n)" );
  ]

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* every [?label] of every [val] an .mli under [dir] exports, as
   (module, value, label); a value of a nested signature carries the
   innermost module's name *)
let exported_options dir =
  let rec mli_files acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc entry -> mli_files acc (Filename.concat path entry))
        acc (Sys.readdir path)
    else if Filename.check_suffix path ".mli" then path :: acc
    else acc
  in
  let rec optionals acc (t : Parsetree.core_type) =
    match t.Parsetree.ptyp_desc with
    | Parsetree.Ptyp_arrow (Asttypes.Optional l, _, rest) -> optionals (l :: acc) rest
    | Parsetree.Ptyp_arrow (_, _, rest) | Parsetree.Ptyp_poly (_, rest) -> optionals acc rest
    | _ -> List.rev acc
  in
  let rec items m (sg : Parsetree.signature) =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.Parsetree.psig_desc with
        | Parsetree.Psig_value vd ->
            List.map
              (fun l -> (m, vd.Parsetree.pval_name.Location.txt, l))
              (optionals [] vd.Parsetree.pval_type)
        | Parsetree.Psig_module
            {
              Parsetree.pmd_name = { Location.txt = Some name; _ };
              pmd_type = { Parsetree.pmty_desc = Parsetree.Pmty_signature sg; _ };
              _;
            } ->
            items name sg
        | _ -> [])
      sg
  in
  List.concat_map
    (fun file ->
      let src = In_channel.with_open_bin file In_channel.input_all in
      let lexbuf = Lexing.from_string src in
      Location.init lexbuf file;
      items (module_of_file file) (Parse.interface lexbuf))
    (List.sort String.compare (mli_files [] dir))

(* every (module, value, label) some application in [sources] passes,
   as [~label] or [?label].  Name-based: a call [M.f] names module [M]
   after resolving the file's [module M = P] aliases to [P]'s last
   component, and an unqualified [f] names the file's own module. *)
let passed_options sources =
  let passed = Hashtbl.create 512 in
  List.iter
    (fun (s : Srcread.source) ->
      let own = module_of_file s.Srcread.file in
      let aliases = Hashtbl.create 16 in
      let resolve m = Option.value ~default:m (Hashtbl.find_opt aliases m) in
      let alias name (me : Parsetree.module_expr) =
        match me.Parsetree.pmod_desc with
        | Parsetree.Pmod_ident { Location.txt; _ } -> (
            match List.rev (Srcread.flatten txt) with
            | last :: _ -> Hashtbl.replace aliases name last
            | [] -> ())
        | _ -> ()
      in
      let note dotted args =
        let m, v =
          match List.rev (String.split_on_char '.' dotted) with
          | [ v ] -> (own, v)
          | v :: m :: _ -> (resolve m, v)
          | [] -> ("", "")
        in
        List.iter
          (fun (l, _) ->
            match l with
            | Asttypes.Optional l | Asttypes.Labelled l -> Hashtbl.replace passed (m, v, l) ()
            | Asttypes.Nolabel -> ())
          args
      in
      let open Ast_iterator in
      let it =
        {
          default_iterator with
          structure_item =
            (fun it (item : Parsetree.structure_item) ->
              (match item.Parsetree.pstr_desc with
              | Parsetree.Pstr_module
                  { Parsetree.pmb_name = { Location.txt = Some name; _ }; pmb_expr; _ } ->
                  alias name pmb_expr
              | _ -> ());
              default_iterator.structure_item it item);
          expr =
            (fun it (e : Parsetree.expression) ->
              (match e.Parsetree.pexp_desc with
              | Parsetree.Pexp_letmodule ({ Location.txt = Some name; _ }, me, _) ->
                  alias name me
              | Parsetree.Pexp_apply (f, args) ->
                  Option.iter (fun dotted -> note dotted args) (Srcread.head_name f)
              | _ -> ());
              default_iterator.expr it e);
        }
      in
      it.structure it s.Srcread.ast)
    sources;
  passed

let leaf_name id =
  match String.rindex_opt id '.' with
  | Some i -> String.sub id (i + 1) (String.length id - i - 1)
  | None -> id

(* top-level effects run wherever their module is linked *)
let is_top_level_effect id = String.starts_with ~prefix:"_init_line" (leaf_name id)

(* [let*]-style operators are used through syntax, never by name *)
let is_binding_operator id =
  let name = leaf_name id in
  let ident_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
    | _ -> false
  in
  String.length name > 3
  && (String.starts_with ~prefix:"let" name || String.starts_with ~prefix:"and" name)
  && not (ident_char name.[3])

let test_lib_reached_by_shipped_code () =
  (* tests run in _build/default/test; test/dune stages the sources *)
  let lib = "../lib" and shipped = [ "../bin"; "../bench"; "../benchmark"; "../examples" ] in
  List.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Alcotest.failf "%s is not staged" dir)
    (lib :: shipped);
  let load dir =
    let sources, errors = Srcread.load_paths [ dir ] in
    check_int (dir ^ " parses") 0 (List.length errors);
    sources
  in
  let lib_sources = load lib in
  let reached = Hashtbl.create 1024 in
  (* one call graph per shipped directory: bench/ and benchmark/ both
     have a [Main], and ids must not collide *)
  let reach_from sources ~roots_of =
    let cg = Callgraph.build (lib_sources @ sources) in
    let roots =
      List.filter_map
        (fun (d : Callgraph.def) -> if roots_of d then Some d.Callgraph.id else None)
        (Callgraph.defs_in_order cg)
    in
    Hashtbl.iter
      (fun id _ -> Hashtbl.replace reached id ())
      (Callgraph.reachable cg ~roots)
  in
  let shipped_sources = List.map load shipped in
  List.iter
    (fun sources ->
      let files = List.map (fun s -> s.Srcread.file) sources in
      reach_from sources ~roots_of:(fun d ->
          List.mem d.Callgraph.file files || is_top_level_effect d.Callgraph.id))
    shipped_sources;
  let cg = Callgraph.build lib_sources in
  List.iter
    (fun id ->
      if Callgraph.find_def cg id = None then
        Alcotest.failf "keep-list entry %s names no library definition" id;
      if Hashtbl.mem reached id then
        Alcotest.failf "keep-list entry %s ships now; drop it from the list" id)
    test_only_keep;
  reach_from [] ~roots_of:(fun d -> List.mem d.Callgraph.id test_only_keep);
  let dead =
    List.filter_map
      (fun (d : Callgraph.def) ->
        let id = d.Callgraph.id in
        if Hashtbl.mem reached id || is_binding_operator id then None
        else Some (Printf.sprintf "%s:%d %s" d.Callgraph.file d.Callgraph.line id))
      (Callgraph.defs_in_order cg)
  in
  if dead <> [] then
    Alcotest.failf "library definitions no shipped program reaches:\n%s"
      (String.concat "\n" dead);
  (* option level: an exported optional argument that nothing outside
     the tests ever passes is a configuration only the tests exercise *)
  let exported = exported_options lib in
  let passed = passed_options (List.concat (lib_sources :: shipped_sources)) in
  List.iter
    (fun (((m, v, l) as key), _) ->
      if not (List.mem key exported) then
        Alcotest.failf "option keep-list entry %s.%s ?%s names no exported option" m v l;
      if Hashtbl.mem passed key then
        Alcotest.failf "option keep-list entry %s.%s ?%s is passed now; drop it" m v l)
    unpassed_option_keep;
  let test_only m v =
    List.exists (fun id -> Srcread.has_suffix ~suffix:(m ^ "." ^ v) id) test_only_keep
  in
  let unpassed =
    List.filter_map
      (fun ((m, v, l) as key) ->
        if Hashtbl.mem passed key || List.mem_assoc key unpassed_option_keep || test_only m v
        then None
        else Some (Printf.sprintf "%s.%s ?%s" m v l))
      exported
  in
  if unpassed <> [] then
    Alcotest.failf "optional arguments no shipped or library code passes:\n%s"
      (String.concat "\n" unpassed)

(* ---- effects ----------------------------------------------------------- *)

let classify_fixture src =
  let cg = Callgraph.build [ parse src ] in
  let info = Effects.classify cg in
  List.map
    (fun (d : Callgraph.def) ->
      ( d.Callgraph.id,
        match Hashtbl.find_opt info d.Callgraph.id with
        | Some (i : Effects.info) -> Effects.cls_name i.Effects.cls
        | None -> "?" ))
    (Callgraph.defs_in_order cg)

(* a recursive pair on each path, so a witness must walk through a
   cycle to reach the intrinsic site: lines 1-5 feed [Effects], lines
   7-11 feed [Exnflow] *)
let chain_fixture =
  {|let leaf () = Unix.gettimeofday ()
let mid x = x +. leaf ()
let rec ping n = if n = 0 then mid 0. else pong (n - 1)
and pong n = ping n
let prog = { initial = (fun _ -> 0.); step = (fun s _ -> s +. ping 3) }

let risky t k = Hashtbl.find t k
let middle t k = risky t k
let rec loop_a t k = if k = 0 then middle t k else loop_b t (k - 1)
and loop_b t k = loop_a t k
let dispatch t k = loop_a t k [@@mincut.boundary "serve-total"]
|}

let test_effect_lattice () =
  let classes =
    classify_fixture
      {|
let pure_add a b = a + b
let counter = ref 0
let bump () = counter := !counter + 1
let clocky () = Unix.gettimeofday ()
let seeded st = Random.State.int st 5
let calls_pure x = pure_add x 1
let calls_bump x = bump (); x
let calls_clock x = x +. clocky ()
|}
  in
  let cls id = List.assoc ("Fixture." ^ id) classes in
  check_bool "pure" true (cls "pure_add" = "pure");
  check_bool "global access is global-mutable" true
    (cls "bump" = "global-mutable");
  check_bool "clock is clock-random-io" true (cls "clocky" = "clock-random-io");
  check_bool "seeded Random.State is deterministic-stateful" true
    (cls "seeded" = "deterministic-stateful");
  check_bool "pure propagates" true (cls "calls_pure" = "pure");
  check_bool "global propagates" true (cls "calls_bump" = "global-mutable");
  check_bool "clock propagates" true (cls "calls_clock" = "clock-random-io");
  match Effects.check (Callgraph.build [ parse chain_fixture ]) with
  | [ f ] ->
      check_int "witness lands on the clock call" 1 f.Lint.line;
      check_bool "witness chain through the recursive pair" true
        (f.Lint.message
       = "step handler Fixture.prog reaches Unix.gettimeofday \
          (clock-random-io, clock-random-io): Fixture.prog -> Fixture.ping \
          -> Fixture.mid -> Fixture.leaf")
  | fs -> Alcotest.failf "expected 1 effect finding, got %d" (List.length fs)

let test_effect_witness_worst_callee () =
  (* the handler is classed by its worst callee, and the finding must
     name that callee's site, not a weaker one met first *)
  match
    Effects.check
      (Callgraph.build
         [
           parse ~file:"order.ml"
             {|let counter = ref 0
let bump () = counter := !counter + 1
let clocky () = Unix.gettimeofday ()
let prog = { initial = (fun _ -> 0.); step = (fun s _ -> bump (); s +. clocky ()) }
|};
         ])
  with
  | [ f ] ->
      check_int "finding on the clock call" 3 f.Lint.line;
      check_bool "chain ends at the clock, not the counter" true
        (f.Lint.message
       = "step handler Order.prog reaches Unix.gettimeofday \
          (clock-random-io, clock-random-io): Order.prog -> Order.clocky")
  | fs -> Alcotest.failf "expected 1 effect finding, got %d" (List.length fs)

let test_effect_annotation_pins () =
  let classes =
    classify_fixture
      {|
let noisy_debug x = (Printf.eprintf "dbg"; x) [@@mincut.effect "pure"]
let caller x = noisy_debug x
|}
  in
  check_bool "annotation pins the def" true
    (List.assoc "Fixture.noisy_debug" classes = "pure");
  check_bool "callers inherit the pinned class" true
    (List.assoc "Fixture.caller" classes = "pure")

(* classification is a function of the syntax, not of the concrete
   layout: pretty-printing the Parsetree and re-parsing must classify
   every def identically *)
let effect_pool =
  [|
    "let pure_add a b = a + b";
    "let shared = ref 0";
    "let bump () = shared := !shared + 1";
    "let clocky () = Unix.gettimeofday ()";
    "let seeded st = Random.State.int st 5";
    "let table = Hashtbl.create 8";
    "let touch k = Hashtbl.replace table k k";
    "let compose x = pure_add x (pure_add x 1)";
    "let noisy () = print_endline \"x\"";
    "let maybe_bump b = if b then bump () else ()";
    "let lookup k = Hashtbl.find table k";
    "let rec walk n = if n = 0 then lookup n else hop (n - 1)\n\
     and hop n = maybe_bump true; walk n";
  |]

let test_effects_stable_under_reparse =
  qtest ~count:60 "effects: classification stable under re-parse"
    QCheck2.Gen.(
      list_size (int_range 1 (Array.length effect_pool))
        (int_range 0 (Array.length effect_pool - 1)))
    (fun picks ->
      let src =
        String.concat "\n"
          (List.map (fun i -> effect_pool.(i)) (List.sort_uniq Int.compare picks))
      in
      let parsed = parse src in
      let printed = Pprintast.string_of_structure parsed.Srcread.ast in
      classify_fixture src = classify_fixture printed)

(* the engine's answer is a function of the call graph, not of the
   order the worklist meets the defs in: reordering the top-level items
   keeps every def's class and every def's raise-set keys *)
let test_engine_order_independent =
  qtest ~count:60 "effects: classes and raise sets independent of def order"
    QCheck2.Gen.(
      list_size (int_range 1 (Array.length effect_pool))
        (int_range 0 (Array.length effect_pool - 1))
      >>= fun picks ->
      let picks = List.sort_uniq Int.compare picks in
      pair (return picks) (shuffle_l picks))
    (fun (picks, shuffled) ->
      let answers order =
        let src = String.concat "\n" (List.map (fun i -> effect_pool.(i)) order) in
        let by_id l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
        ( by_id (classify_fixture src),
          by_id (Exnflow.raise_sets (Callgraph.build [ parse src ])) )
      in
      answers picks = answers shuffled)

(* ---- allocation budgets ------------------------------------------------ *)

let test_allocheck_counts () =
  let cg =
    Callgraph.build
      [
        parse
          {|
let p =
  {
    initial = (fun _ -> 0);
    step = (fun s _ -> let t = (s, s) in [ fst t ]);
  }
|};
      ]
  in
  match Allocheck.targets cg with
  | [ t ] ->
      check_bool "target id" true (t.Allocheck.tid = "Fixture.p.step");
      (* tuple + cons; the handler's own lambda is not a per-round
         site, and the cons-cell pair is one block *)
      check_int "sites" 2 (List.length t.Allocheck.sites)
  | ts -> Alcotest.failf "expected 1 target, got %d" (List.length ts)

let test_allocheck_error_path_free () =
  let cg =
    Callgraph.build
      [
        parse
          {|
let p =
  {
    initial = (fun _ -> 0);
    step = (fun s _ -> if s < 0 then failwith (Printf.sprintf "bad %d" s) else s);
  }
|};
      ]
  in
  match Allocheck.targets cg with
  | [ t ] -> check_int "error-path printf is free" 0 (List.length t.Allocheck.sites)
  | ts -> Alcotest.failf "expected 1 target, got %d" (List.length ts)

(* ---- exception flow ----------------------------------------------------- *)

let exn_check src = Exnflow.check (Callgraph.build [ parse src ])

let test_exnflow_boundary_leak () =
  let _, findings =
    exn_check
      {|
let risky table key = Hashtbl.find table key

let dispatch table key = risky table key [@@mincut.boundary "serve-total"]
|}
  in
  match findings with
  | [ f ] ->
      check_bool "rule" true (f.Lint.rule = "exn-escape");
      check_bool "file" true (f.Lint.file = "fixture.ml");
      (* the finding lands on the intrinsic Hashtbl.find, not the boundary *)
      check_int "line" 2 f.Lint.line;
      check_bool "names the exception" true
        (contains ~sub:"Not_found" f.Lint.message);
      check_bool "witness chain root-to-leaf" true
        (contains ~sub:"Fixture.dispatch -> Fixture.risky" f.Lint.message);
      (match exn_check chain_fixture with
      | _, [ f ] ->
          check_int "witness lands on Hashtbl.find" 7 f.Lint.line;
          check_bool "witness chain through the recursive pair" true
            (f.Lint.message
           = "boundary serve-total: Fixture.dispatch may raise Not_found \
              (Hashtbl.find): Fixture.dispatch -> Fixture.loop_a -> \
              Fixture.middle -> Fixture.risky")
      | _, fs ->
          Alcotest.failf "expected 1 exn finding, got %d" (List.length fs))
  | fs -> Alcotest.failf "expected 1 exn finding, got %d" (List.length fs)

let test_exnflow_handlers_subtract () =
  let _, by_try =
    exn_check
      {|
let risky table key = try Hashtbl.find table key with Not_found -> 0

let dispatch table key = risky table key [@@mincut.boundary "serve-total"]
|}
  in
  check_int "try subtracts" 0 (List.length by_try);
  let _, by_match =
    exn_check
      {|
let risky table key =
  match Hashtbl.find table key with
  | v -> v
  | exception Not_found -> 0

let dispatch table key = risky table key [@@mincut.boundary "serve-total"]
|}
  in
  check_int "match-exception subtracts" 0 (List.length by_match);
  (* a guarded handler proves nothing: the guard may decline *)
  let _, guarded =
    exn_check
      {|
let risky table key =
  try Hashtbl.find table key with Not_found when key > 0 -> 0

let dispatch table key = risky table key [@@mincut.boundary "serve-total"]
|}
  in
  check_int "guarded handler does not subtract" 1 (List.length guarded)

let test_exnflow_pins () =
  (* an empty pin discharges the inferred raise *)
  let _, silenced =
    exn_check
      {|
let risky table key = Hashtbl.find table key [@@mincut.raises ""]

let dispatch table key = risky table key [@@mincut.boundary "serve-total"]
|}
  in
  check_int "empty pin silences" 0 (List.length silenced);
  (* a non-empty pin propagates even when the body raises nothing *)
  let _, propagated =
    exn_check
      {|
let wait_for_peer () = 0 [@@mincut.raises "Timeout"]

let dispatch () = wait_for_peer () [@@mincut.boundary "serve-total"]
|}
  in
  match propagated with
  | [ f ] ->
      check_bool "pinned exn surfaces" true
        (contains ~sub:"Timeout" f.Lint.message);
      check_bool "pin provenance" true
        (contains ~sub:"pinned [@mincut.raises]" f.Lint.message)
  | fs -> Alcotest.failf "expected 1 pin finding, got %d" (List.length fs)

let test_exnflow_unknown_boundary () =
  let _, findings =
    exn_check {|
let dispatch () = 0 [@@mincut.boundary "serve-partial"]
|}
  in
  match findings with
  | [ f ] ->
      check_bool "unknown policy is loud" true
        (contains ~sub:"unknown [@mincut.boundary" f.Lint.message)
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_exnflow_root_listed_once () =
  (* a def that is a named serve-total root and also carries the
     annotation is one root, with one finding per exception *)
  let summary, findings =
    Exnflow.check
      (Callgraph.build
         [
           parse ~file:"lib/serve/server.ml"
             {|let run t k = Hashtbl.find t k [@@mincut.boundary "serve-total"]
|};
         ])
  in
  check_int "one finding" 1 (List.length findings);
  check_int "one serve-total root" 1 (List.assoc "serve-total" summary.Exnflow.policies)

let test_exnflow_external_table () =
  check_bool "Hashtbl.find raises Not_found" true
    (Exnflow.external_raises "Hashtbl.find" = [ "Not_found" ]);
  check_bool "gettimeofday is safe" true
    (Exnflow.external_raises "Unix.gettimeofday" = []);
  check_bool "openfile raises Unix_error" true
    (Exnflow.external_raises "Unix.openfile" = [ "Unix_error" ])

(* ---- resource brackets -------------------------------------------------- *)

let res_check src = Resguard.check (Callgraph.build [ parse src ])

let test_resguard_leak () =
  let _, findings =
    res_check
      {|
let slurp path =
  let ic = open_in_bin path in
  really_input_string ic (in_channel_length ic)
|}
  in
  match findings with
  | [ f ] ->
      check_bool "rule" true (f.Lint.rule = "resource-leak");
      check_int "acquisition line" 3 f.Lint.line;
      check_bool "names the acquisition" true
        (contains ~sub:"open_in_bin" f.Lint.message)
  | fs -> Alcotest.failf "expected 1 leak, got %d" (List.length fs)

let test_resguard_unbound_acquisition () =
  let _, findings = res_check {|
let peek path = input_line (open_in path)
|} in
  check_int "unbound acquisition is a finding" 1 (List.length findings)

let test_resguard_bracket_negative () =
  let summary, findings =
    res_check
      {|
let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
|}
  in
  check_int "bracketed acquisition is clean" 0 (List.length findings);
  check_int "checked" 1 summary.Resguard.acquisitions_checked;
  check_int "bracketed" 1 summary.Resguard.bracketed

let test_resguard_transfer_negative () =
  let _, findings =
    res_check
      {|
let register tbl path =
  let ic = open_in_bin path in
  Hashtbl.replace tbl path ic
|}
  in
  check_int "ownership transfer is clean" 0 (List.length findings)

(* ---- seeded defects ---------------------------------------------------- *)

let test_inject_seeds_fire () =
  List.iter
    (fun (seed, (file, src, rule)) ->
      let r = Astlint.analyze ([ parse ~file src ], []) in
      match
        List.filter (fun (f : Lint.finding) -> f.Lint.rule = rule)
          (Astlint.findings r)
      with
      | [] -> Alcotest.failf "seed %s did not trigger %s" seed rule
      | f :: _ ->
          check_bool
            (Printf.sprintf "%s provenance file" seed)
            true (f.Lint.file = file);
          check_bool
            (Printf.sprintf "%s provenance line" seed)
            true (f.Lint.line > 1))
    Astlint.inject_seeds

let test_inject_provenance_lines () =
  (* pin the exact defect lines so provenance regressions are loud:
     nondet's clock call is on seed line 5, alloc's program record opens
     on line 3, race's unguarded write is on line 4, exnleak's
     Hashtbl.find is on line 2, fdleak's open_in_bin is on line 3 *)
  let line_of seed =
    let file, src, rule =
      List.assoc seed Astlint.inject_seeds
    in
    let r = Astlint.analyze ([ parse ~file src ], []) in
    match
      List.filter (fun (f : Lint.finding) -> f.Lint.rule = rule)
        (Astlint.findings r)
    with
    | f :: _ -> f.Lint.line
    | [] -> Alcotest.failf "seed %s silent" seed
  in
  check_int "nondet line" 5 (line_of "nondet");
  check_int "alloc line" 3 (line_of "alloc");
  check_int "race line" 4 (line_of "race");
  check_int "exnleak line" 2 (line_of "exnleak");
  check_int "fdleak line" 3 (line_of "fdleak")

let test_domcheck_respects_guards () =
  let guarded =
    {|
let hits = ref 0
let lock = Lockcheck.create ~name:"t" ~order:1
let record_hit x = Lockcheck.with_lock lock (fun () -> hits := !hits + x)
let tally xs = Mincut_parallel.Pool.map (fun x -> record_hit x) xs
|}
  in
  let r = Astlint.analyze ([ parse ~file:"guarded.ml" guarded ], []) in
  check_bool "with_lock silences the race" true
    (List.for_all
       (fun (f : Lint.finding) -> f.Lint.rule <> "domain-race")
       (Astlint.findings r));
  let atomic =
    {|
let hits = Atomic.make 0
let record_hit x = Atomic.set hits (Atomic.get hits + x)
let tally xs = Mincut_parallel.Pool.map (fun x -> record_hit x) xs
|}
  in
  let r = Astlint.analyze ([ parse ~file:"atomic.ml" atomic ], []) in
  check_bool "atomics are safe" true
    (List.for_all
       (fun (f : Lint.finding) -> f.Lint.rule <> "domain-race")
       (Astlint.findings r))

(* ---- plumbing ---------------------------------------------------------- *)

let test_parse_error_finding () =
  let r = Astlint.analyze (Srcread.load_paths []) in
  check_bool "no phantom errors" true (r.Astlint.parse_errors = []);
  match Srcread.parse_string ~file:"broken.ml" "let x = (" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
      let r = Astlint.analyze ([], [ e ]) in
      (match Astlint.findings r with
      | [ f ] ->
          check_bool "rule" true (f.Lint.rule = "parse-error");
          check_bool "file" true (f.Lint.file = "broken.ml")
      | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs))

let test_ast_allow_knows_new_rules () =
  check_bool "ast rules accepted" true
    (match
       Lint.Allow.of_lines ~known:Astlint.known_rule
         [ "step-effect lib/foo.ml:3"; "domain-race lib/bar.ml" ]
     with
    | Ok _ -> true
    | Error _ -> false);
  check_bool "unknown rules rejected" true
    (match
       Lint.Allow.of_lines ~known:Astlint.known_rule [ "no-such-rule lib/foo.ml:3" ]
     with
    | Ok _ -> false
    | Error _ -> true)

let test_ast_allow_stale_entries () =
  (* the stale-suppression report (`note: unused allowlist entry ...` /
     JSON [allow_unused]) quotes [Allow.unused]'s raw lines verbatim:
     prove a matching new-family entry suppresses and a stale one
     surfaces exactly as written *)
  let _, findings =
    exn_check
      {|
let risky table key = Hashtbl.find table key

let dispatch table key = risky table key [@@mincut.boundary "serve-total"]
|}
  in
  check_bool "fixture leaks" true (findings <> []);
  match
    Lint.Allow.of_lines ~known:Astlint.known_rule
      [ "exn-escape fixture.ml:2"; "resource-leak lib/gone.ml:9" ]
  with
  | Error e -> Alcotest.fail e
  | Ok allow -> (
      check_int "matching entry suppresses" 0
        (List.length (Lint.Allow.filter allow findings));
      match Lint.Allow.unused allow findings with
      | [ raw ] ->
          check_bool "stale entry quoted verbatim" true
            (raw = "resource-leak lib/gone.ml:9")
      | l -> Alcotest.failf "expected 1 stale entry, got %d" (List.length l))

let test_peak_rss () =
  match Stats.peak_rss_kb () with
  | None -> () (* non-procfs platform: the bench records null *)
  | Some kb -> check_bool "peak rss positive" true (kb > 0)

let suite =
  [
    tc "hazards: every token rule has an AST port" test_hazards_fire;
    tc "hazards: binding contexts don't trip the AST tier"
      test_hazards_scope_aware;
    tc "repo analyzes clean" test_repo_is_clean;
    tc "reachability: every lib def ships or is kept for tests"
      test_lib_reached_by_shipped_code;
    tc "effects: lattice and propagation" test_effect_lattice;
    tc "effects: annotations pin classes" test_effect_annotation_pins;
    tc "effects: witness follows the worst callee"
      test_effect_witness_worst_callee;
    test_effects_stable_under_reparse;
    test_engine_order_independent;
    tc "allocheck: counts sites, skips handler lambda" test_allocheck_counts;
    tc "allocheck: error paths are free" test_allocheck_error_path_free;
    tc "exnflow: boundary leak carries its witness" test_exnflow_boundary_leak;
    tc "exnflow: try and match-exception subtract" test_exnflow_handlers_subtract;
    tc "exnflow: raises pins discharge and propagate" test_exnflow_pins;
    tc "exnflow: unknown boundary policy is a finding"
      test_exnflow_unknown_boundary;
    tc "exnflow: a named and annotated root is listed once"
      test_exnflow_root_listed_once;
    tc "exnflow: curated externals table" test_exnflow_external_table;
    tc "resguard: unbracketed open leaks" test_resguard_leak;
    tc "resguard: unbound acquisition leaks" test_resguard_unbound_acquisition;
    tc "resguard: Fun.protect brackets" test_resguard_bracket_negative;
    tc "resguard: ownership transfer releases" test_resguard_transfer_negative;
    tc "inject: every seed fires its analyzer" test_inject_seeds_fire;
    tc "inject: provenance lands on the defect line"
      test_inject_provenance_lines;
    tc "domcheck: with_lock and Atomic silence the race"
      test_domcheck_respects_guards;
    tc "parse errors become findings" test_parse_error_finding;
    tc "allowlist: ast rule vocabulary" test_ast_allow_knows_new_rules;
    tc "allowlist: stale entries surface for deletion"
      test_ast_allow_stale_entries;
    tc "stats: peak rss readable" test_peak_rss;
  ]
