(* Static analysis: orchestrates the Parsetree analyzers.

   Three layers on top of [Srcread]/[Callgraph]:

   - [hazards]: the nine determinism/model hazard rules, on real
     syntax — a [let f () = 2.5] binding is not a comparison, a punned
     [~compare] label is not a bare compare, and comments and strings
     are not code.
   - the whole-repo analyzers: [Effects.check] (step-effect),
     [Allocheck.check] (alloc-budget), [Domcheck.check] (domain-race),
     [Exnflow.check] (exn-escape), [Resguard.check] (resource-leak),
     all sharing one call graph.
   - [inject_seeds]: self-contained defective pseudo-modules (nondet /
     alloc / race / exnleak / fdleak), parsed and appended to the real
     sources so CI can prove each analyzer still bites.  A checker that
     cannot fail is not checking anything. *)

module Json = Mincut_util.Json

let rules =
  [
    ("poly-compare", "bare polymorphic compare; use Int.compare & co.");
    ("poly-equal", "polymorphic ( = ) as a first-class function");
    ("hashtbl-hash", "Hashtbl.hash varies across OCaml versions");
    ("unseeded-random", "Random.* bypasses the seeded Mincut_util.Rng");
    ("obj-magic", "Obj.* defeats the type system");
    ("catchall-exn", "try ... with _ -> swallows every exception");
    ("bare-mutex", "direct Mutex.create outside Lockcheck bypasses rank checking");
    ("float-equal", "( = ) on floats; use Float.equal or an epsilon test");
    ("list-nth", "List.nth is O(n) per access; index an array instead");
    ( "parse-error",
      "source rejected by the compiler's parser; no other rule can check it" );
    ( "step-effect",
      "code reachable from a CONGEST step handler leaves the \
       deterministic effect classes" );
    ( "alloc-budget",
      "allocation sites in Network.drive's round loop or a step handler \
       exceed the calibrated budget" );
    ( "domain-race",
      "top-level mutable state reachable from a Pool task without \
       Lockcheck.with_lock or Atomic" );
    ( "exn-escape",
      "an exception can cross a declared boundary: escape the serve \
       dispatch or a pool domain body, or carry Store_error out of the \
       store layer" );
    ( "resource-leak",
      "a descriptor acquisition with no Fun.protect bracket or ownership \
       transfer on some path" );
  ]

let known_rule r = List.exists (fun (name, _) -> name = r) rules

(* ---- hazard rules -------------------------------------------------------- *)

(* the parser folds a negated literal into the constant: [x = -2.5]
   compares against [Pconst_float "-2.5"] *)
let float_lit (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | _ -> false

let hazards (s : Srcread.source) =
  let findings = ref [] in
  let report loc rule message =
    let line, col = Srcread.lc loc in
    findings := { Lint.file = s.Srcread.file; line; col; rule; message } :: !findings
  in
  let ident_rules name loc =
    if name = "compare" then
      report loc "poly-compare"
        "polymorphic compare is representation-dependent; use Int.compare, \
         Float.compare, String.compare or a typed comparator";
    if name = "Hashtbl.hash" || name = "Hashtbl.seeded_hash" then
      report loc "hashtbl-hash"
        "Hashtbl.hash output varies across OCaml versions; use the FNV-1a \
         Mincut_util.Hash for anything persisted or compared across runs";
    if name = "Random" || String.starts_with ~prefix:"Random." name then
      report loc "unseeded-random"
        "ambient Random state breaks deterministic replay; draw from a \
         seeded Mincut_util.Rng passed in explicitly";
    if String.starts_with ~prefix:"Obj." name then
      report loc "obj-magic" "Obj.* defeats the type system; find a typed way";
    if name = "Mutex.create" then
      report loc "bare-mutex"
        "direct Mutex.create bypasses the ranked Lockcheck discipline; \
         create locks with Lockcheck.create ~name ~order";
    if name = "List.nth" then
      report loc "list-nth"
        "List.nth is O(n) per access and O(n^2) in loops; use an array or \
         fold the list once";
    if name = "=" then
      report loc "poly-equal"
        "polymorphic equality as a function value; use a typed equal"
  in
  (* [( = ) 3.0 x] is a first-class use (poly-equal) while [x = 3.0] is
     a comparison (float-equal); the Parsetree spells both as the same
     application, but only in prefix position does the operator start
     before its first argument *)
  let prefix_position (f : Parsetree.expression) args =
    match args with
    | (_, (a : Parsetree.expression)) :: _ ->
        f.pexp_loc.Location.loc_start.Lexing.pos_cnum
        < a.pexp_loc.Location.loc_start.Lexing.pos_cnum
    | [] -> true
  in
  let punned (label, (a : Parsetree.expression)) =
    match (label, a.pexp_desc) with
    | ( (Asttypes.Labelled l | Asttypes.Optional l),
        Pexp_ident { txt = Longident.Lident l'; _ } ) ->
        l = l'
    | _ -> false
  in
  let rec expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        ident_rules (Srcread.strip_stdlib (Srcread.name_of txt)) loc
    | Pexp_constraint
        ({ pexp_desc = Pexp_ident { txt = Longident.Lident "compare"; _ }; _ }, _)
      ->
        (* [(compare : t -> t -> int)] names the typed comparator being
           ascribed *)
        ()
    | Pexp_apply (f, args) -> (
        let visit_args () =
          List.iter
            (fun ((_, a) as arg) -> if not (punned arg) then expr it a)
            args
        in
        match f.pexp_desc with
        | Pexp_ident { txt; loc }
          when Srcread.strip_stdlib (Srcread.name_of txt) = "=" ->
            (if prefix_position f args then
               report loc "poly-equal"
                 "polymorphic equality as a function value; use a typed equal"
             else if List.exists (fun (_, a) -> float_lit a) args then
               report loc "float-equal"
                 "( = ) on a float literal; use Float.equal, or compare \
                  against an epsilon when values are computed");
            visit_args ()
        | _ ->
            expr it f;
            visit_args ())
    | Pexp_try (body, cases) ->
        (match cases with
        | { pc_lhs = { ppat_desc = Ppat_any; ppat_loc; _ }; _ } :: _ ->
            report ppat_loc "catchall-exn"
              "catch-all exception handler; match the exceptions this \
               expression actually raises"
        | _ -> ());
        expr it body;
        List.iter (fun (c : Parsetree.case) -> case it c) cases
    | _ -> Ast_iterator.default_iterator.expr it e
  and case it (c : Parsetree.case) =
    Option.iter (expr it) c.pc_guard;
    expr it c.pc_rhs
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it s.Srcread.ast;
  List.rev !findings

(* ---- whole-repo report -------------------------------------------------- *)

type report = {
  files : string list;
  parse_errors : Srcread.error list;
  hazard_findings : Lint.finding list;
  effect_findings : Lint.finding list;
  effect_classes : (string * int) list;
  alloc_targets : Allocheck.target list;
  alloc_findings : Lint.finding list;
  race_findings : Lint.finding list;
  exn_summary : Exnflow.summary;
  exn_findings : Lint.finding list;
  resource_summary : Resguard.summary;
  resource_findings : Lint.finding list;
}

let effect_census cg =
  let info = Effects.classify cg in
  let count c =
    List.length
      (List.filter
         (fun (d : Callgraph.def) ->
           match Hashtbl.find_opt info d.Callgraph.id with
           | Some (i : Effects.info) -> i.Effects.cls = c
           | None -> false)
         (Callgraph.defs_in_order cg))
  in
  List.map
    (fun c -> (Effects.cls_name c, count c))
    [ Effects.Pure; Effects.Det_stateful; Effects.Global_mutable;
      Effects.Clock_random_io ]

let analyze (sources, parse_errors) =
  let cg = Callgraph.build sources in
  let alloc_targets, alloc_findings = Allocheck.check cg in
  let exn_summary, exn_findings = Exnflow.check cg in
  let resource_summary, resource_findings = Resguard.check cg in
  {
    files = List.map (fun (s : Srcread.source) -> s.Srcread.file) sources;
    parse_errors;
    hazard_findings =
      List.concat_map hazards sources |> List.sort Lint.compare_findings;
    effect_findings = Effects.check cg;
    effect_classes = effect_census cg;
    alloc_targets;
    alloc_findings;
    race_findings = Domcheck.check cg;
    exn_summary;
    exn_findings;
    resource_summary;
    resource_findings;
  }

let run paths = analyze (Srcread.load_paths paths)

let findings r =
  let of_error (e : Srcread.error) =
    {
      Lint.file = e.Srcread.efile;
      line = e.Srcread.eline;
      col = e.Srcread.ecol;
      rule = "parse-error";
      message =
        Printf.sprintf "%s; no other rule covers this file until it parses"
          e.Srcread.reason;
    }
  in
  List.map of_error r.parse_errors
  @ r.hazard_findings @ r.effect_findings @ r.alloc_findings @ r.race_findings
  @ r.exn_findings @ r.resource_findings
  |> List.sort Lint.compare_findings

let to_json r =
  let target_json (t : Allocheck.target) =
    Json.Obj
      [
        ("id", Json.String t.Allocheck.tid);
        ("file", Json.String t.Allocheck.tfile);
        ("line", Json.Int t.Allocheck.tline);
        ("budget", Json.Int t.Allocheck.budget);
        ("sites", Json.Int (List.length t.Allocheck.sites));
        ( "by_kind",
          Json.Obj
            (List.map
               (fun (k, n) -> (k, Json.Int n))
               (Allocheck.by_kind t.Allocheck.sites)) );
      ]
  in
  Json.Obj
    [
      ("tier", Json.String "ast");
      ("files", Json.Int (List.length r.files));
      ( "parse_errors",
        Json.List
          (List.map
             (fun (e : Srcread.error) ->
               Json.Obj
                 [
                   ("file", Json.String e.Srcread.efile);
                   ("line", Json.Int e.Srcread.eline);
                   ("reason", Json.String e.Srcread.reason);
                 ])
             r.parse_errors) );
      ( "effect_classes",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.effect_classes) );
      ("alloc_targets", Json.List (List.map target_json r.alloc_targets));
      ( "exn_boundaries",
        Json.Obj
          (("defs_raising", Json.Int r.exn_summary.Exnflow.defs_raising)
          :: List.map
               (fun (p, n) -> (p, Json.Int n))
               r.exn_summary.Exnflow.policies) );
      ( "resource_safety",
        Json.Obj
          [
            ( "acquisitions",
              Json.Int r.resource_summary.Resguard.acquisitions_checked );
            ("bracketed", Json.Int r.resource_summary.Resguard.bracketed);
          ] );
      ( "findings",
        match Lint.to_json (findings r) with
        | Json.Obj fields ->
            Option.value ~default:Json.Null (List.assoc_opt "findings" fields)
        | _ -> Json.Null );
      ("count", Json.Int (List.length (findings r)));
    ]

(* ---- seeded defects ----------------------------------------------------- *)

(* Each seed is a self-contained module that parses cleanly, triggers
   exactly one analyzer, and touches nothing else in the repo.  CI runs
   every seed: an analyzer that stops firing on its seed has rotted. *)

let nondet_seed =
  {|
let bad_clock_program =
  {
    initial = (fun _node -> 0);
    step = (fun state _inbox -> int_of_float (Unix.gettimeofday ()) + state);
  }
|}

let alloc_seed =
  {|
let hungry_program =
  {
    initial = (fun _node -> []);
    step =
      (fun state _inbox ->
        let pairs =
          [
            (1, 1); (2, 2); (3, 3); (4, 4); (5, 5); (6, 6); (7, 7); (8, 8);
            (9, 9); (10, 10); (11, 11); (12, 12); (13, 13); (14, 14);
            (15, 15); (16, 16); (17, 17); (18, 18); (19, 19); (20, 20);
            (21, 21);
          ]
        in
        pairs :: state);
  }
|}

let race_seed =
  {|
let hits = ref 0

let record_hit x = hits := !hits + x

let tally xs = Mincut_parallel.Pool.map (fun x -> record_hit x) xs
|}

let exnleak_seed =
  {|
let risky_lookup table key = Hashtbl.find table key

let dispatch table key = risky_lookup table key [@@mincut.boundary "serve-total"]
|}

let fdleak_seed =
  {|
let slurp path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  body
|}

let inject_seeds =
  [
    ("nondet", ("inject_nondet.ml", nondet_seed, "step-effect"));
    ("alloc", ("inject_alloc.ml", alloc_seed, "alloc-budget"));
    ("race", ("inject_race.ml", race_seed, "domain-race"));
    ("exnleak", ("inject_exnleak.ml", exnleak_seed, "exn-escape"));
    ("fdleak", ("inject_fdleak.ml", fdleak_seed, "resource-leak"));
  ]

let run_inject ~seed paths =
  match List.assoc_opt seed inject_seeds with
  | None -> Error (Printf.sprintf "unknown inject seed %S" seed)
  | Some (file, src, rule) -> (
      match Srcread.parse_string ~file src with
      | Error e ->
          Error (Printf.sprintf "inject seed %s does not parse: %s" seed
                   e.Srcread.reason)
      | Ok parsed ->
          let sources, errors = Srcread.load_paths paths in
          Ok (analyze (sources @ [ parsed ], errors), rule))
