(* Interprocedural may-raise inference ("exnflow") over the call graph.

   Every def gets a *raise set*: the exception constructors its body may
   let escape, where "?" stands for an exception the analysis cannot
   name (a re-raise of a caught value, [raise] used as a first-class
   function).  The set is computed by a structural walk of the body —

   - [raise (C _)] / [failwith] / [invalid_arg] / [assert] contribute
     their constructor;
   - a curated table names the raising corners of the stdlib the repo
     touches ([Hashtbl.find] -> [Not_found], [open_*] -> [Sys_error],
     [Unix.*] -> [Unix_error], ...);
   - resolved intra-repo calls contribute the callee's current set;
   - [try ... with] and [match ... with exception] *subtract*: an
     unguarded handler pattern removes the constructors it matches from
     the protected expression's set (a catch-all removes everything,
     including "?"); handler guards catch nothing, conservatively —

   and propagated to a fixpoint by [Callgraph.solve].
   Typed-error returns ([result]) subtract for free: they are not
   exceptions.  [[@mincut.raises "A,B"]] pins a def's complete set
   (the empty string pins the empty set) where inference is too coarse
   or an invariant is discharged elsewhere — pinned defs neither infer
   nor inherit.  Each set element carries the site it was first seen at
   and the callee it was inherited through, so a finding follows
   [ocall] links ([Callgraph.chain]) to the intrinsic raise site and
   reports an exact file:line:col witness chain, as [Effects] does.

   Deliberately out of scope: the implicit [Invalid_argument] of bounds
   checks ([Array.get], [String.sub], ...) — tabulating those would
   drown every numeric kernel in noise.  The protocol fuzz test is the
   dynamic complement on the one boundary where malformed input is
   adversarial.

   Boundary policies (rule [exn-escape]):

   - [serve-total]: [Server.handle_command] and [Server.run] must have
     an empty raise set — every exception reachable from the dispatch
     is caught and converted to a protocol ERR line.  The transports
     ([run_stdio]/[run_socket]) are excluded: a transport failure
     terminates the acceptor, it does not answer a request.
   - [pool-no-leak]: the pool's domain bodies ([Pool.helper_serve],
     [Pool.run_participant], [Pool.ensure_helpers]) must be empty —
     an exception escaping a worker domain kills it silently; task
     exceptions must travel the [Ok]/[Error] capture + caller-side
     [collect] re-raise path instead.
   - [store-typed]: [Chunked_graph.Store_error] must not appear in the
     raise set of any def outside [lib/store]: the typed [Chunk_io]
     errors are consumed or converted before crossing into serve.

   [[@mincut.boundary "<policy>"]] adds a def as a root of the named
   policy; unknown policy names are findings themselves. *)

module Smap = Map.Make (String)

type origin = {
  ofile : string;
  oline : int;
  ocol : int;
  via : string;  (* what raised: "raise Foo", an external name, "assert" *)
  ocall : string option;  (* callee def id the exception came through *)
}

(* ---- the raising-externals table --------------------------------------- *)

let raising_exact =
  [
    ("raise", [ "?" ]);
    ("raise_notrace", [ "?" ]);
    ("Printexc.raise_with_backtrace", [ "?" ]);
    ("failwith", [ "Failure" ]);
    ("invalid_arg", [ "Invalid_argument" ]);
    ("Hashtbl.find", [ "Not_found" ]);
    ("List.hd", [ "Failure" ]);
    ("List.tl", [ "Failure" ]);
    ("List.nth", [ "Failure" ]);
    ("List.find", [ "Not_found" ]);
    ("List.assoc", [ "Not_found" ]);
    ("Option.get", [ "Invalid_argument" ]);
    ("int_of_string", [ "Failure" ]);
    ("float_of_string", [ "Failure" ]);
    ("bool_of_string", [ "Invalid_argument" ]);
    ("input_line", [ "End_of_file" ]);
    ("input_char", [ "End_of_file" ]);
    ("input_byte", [ "End_of_file" ]);
    ("really_input", [ "End_of_file" ]);
    ("really_input_string", [ "End_of_file" ]);
    ("input_value", [ "Failure" ]);
    ("Marshal.from_channel", [ "Failure" ]);
    ("Marshal.from_string", [ "Failure" ]);
    ("open_in", [ "Sys_error" ]);
    ("open_in_bin", [ "Sys_error" ]);
    ("open_in_gen", [ "Sys_error" ]);
    ("open_out", [ "Sys_error" ]);
    ("open_out_bin", [ "Sys_error" ]);
    ("open_out_gen", [ "Sys_error" ]);
    ("close_in", [ "Sys_error" ]);
    ("close_out", [ "Sys_error" ]);
    ("Sys.rename", [ "Sys_error" ]);
    ("Sys.remove", [ "Sys_error" ]);
    ("Sys.readdir", [ "Sys_error" ]);
    ("Sys.is_directory", [ "Sys_error" ]);
    ("Sys.getcwd", [ "Sys_error" ]);
    ("Sys.mkdir", [ "Sys_error" ]);
    ("Queue.pop", [ "Empty" ]);
    ("Queue.take", [ "Empty" ]);
    ("Queue.peek", [ "Empty" ]);
    ("Stack.pop", [ "Empty" ]);
    ("Stack.top", [ "Empty" ]);
  ]

(* Unix syscalls raise [Unix_error]; the handful of pure accessors the
   repo leans on do not *)
let unix_safe =
  [
    "Unix.gettimeofday"; "Unix.time"; "Unix.getpid";
    "Unix.string_of_inet_addr"; "Unix.error_message";
  ]

let external_raises name =
  match List.assoc_opt name raising_exact with
  | Some exns -> exns
  | None ->
      if
        String.starts_with ~prefix:"Unix." name
        && (not (List.mem name unix_safe))
        && not
             (List.exists
                (fun prefix -> String.starts_with ~prefix name)
                [ "Unix.PF_"; "Unix.SOCK_"; "Unix.SO_" ])
      then [ "Unix_error" ]
      else []

(* ---- structural raise-set of one body ---------------------------------- *)

let union a b = Smap.union (fun _ o _ -> Some o) a b

type catches = All | Names of string list

let join_catches a b =
  match (a, b) with
  | All, _ | _, All -> All
  | Names xs, Names ys -> Names (xs @ ys)

(* what one handler pattern catches; unknown shapes catch nothing *)
let rec pat_catches (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> All
  | Ppat_alias (p, _) -> pat_catches p
  | Ppat_or (a, b) -> join_catches (pat_catches a) (pat_catches b)
  | Ppat_constraint (p, _) -> pat_catches p
  | Ppat_construct ({ txt; _ }, _) -> Names [ Longident.last txt ]
  | _ -> Names []

(* the [exception p] sub-patterns of a match case *)
let rec exc_subpats (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_exception sub -> [ sub ]
  | Ppat_or (a, b) -> exc_subpats a @ exc_subpats b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> exc_subpats p
  | _ -> []

(* what the unguarded handlers of [cases] catch; [handlers] picks the
   handler patterns out of a case's pattern (a guard may decline) *)
let caught handlers cases =
  List.fold_left
    (fun acc (c : Parsetree.case) ->
      if c.pc_guard <> None then acc
      else
        List.fold_left
          (fun acc p -> join_catches acc (pat_catches p))
          acc (handlers c.pc_lhs))
    (Names []) cases

let subtract set = function
  | All -> Smap.empty
  | Names ns -> Smap.filter (fun k _ -> not (List.mem k ns)) set

(* the raise set of [d]'s body given the current callee sets *)
let body_raises cg (d : Callgraph.def) value =
  let refmap = Hashtbl.create 64 in
  List.iter
    (fun (r : Callgraph.refsite) ->
      Hashtbl.replace refmap (r.Callgraph.rline, r.Callgraph.rcol) r)
    d.Callgraph.refs;
  let site loc via ocall =
    let oline, ocol = Srcread.lc loc in
    { ofile = d.Callgraph.file; oline; ocol; via; ocall }
  in
  let of_name name loc =
    match Callgraph.resolve cg ~from:d name with
    | Some id when id <> d.Callgraph.id && Callgraph.find_def cg id <> None ->
        Smap.map (fun _ -> site loc ("call to " ^ id) (Some id)) (value id)
    | Some _ -> Smap.empty (* a global, or self-recursion *)
    | None ->
        List.fold_left
          (fun acc exn -> union acc (Smap.singleton exn (site loc name None)))
          Smap.empty (external_raises name)
  in
  let rec go (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        let line, col = Srcread.lc loc in
        let name =
          match Hashtbl.find_opt refmap (line, col) with
          | Some (r : Callgraph.refsite) -> r.Callgraph.name
          | None -> Srcread.strip_stdlib (Srcread.name_of txt)
        in
        of_name name loc
    | Pexp_apply (f, args) -> (
        let argsets () =
          List.fold_left (fun acc (_, a) -> union acc (go a)) Smap.empty args
        in
        match Option.map Srcread.strip_stdlib (Srcread.head_name f) with
        | Some ("raise" | "raise_notrace") -> (
            match args with
            | [
                (_, ({ pexp_desc = Pexp_construct ({ txt; _ }, payload); _ } as a));
              ] ->
                let exn = Longident.last txt in
                union
                  (Smap.singleton exn (site a.pexp_loc ("raise " ^ exn) None))
                  (Option.fold ~none:Smap.empty ~some:go payload)
            | _ ->
                union
                  (Smap.singleton "?" (site e.pexp_loc "re-raise" None))
                  (argsets ()))
        | _ -> union (go f) (argsets ()))
    | Pexp_try (body, cases) ->
        union
          (subtract (go body) (caught (fun p -> [ p ]) cases))
          (cases_raises cases)
    | Pexp_match (scrut, cases) ->
        union
          (subtract (go scrut) (caught exc_subpats cases))
          (cases_raises cases)
    | Pexp_assert _ ->
        (* even [assert false]: compiled out only under -noassert, which
           the repo does not use *)
        union
          (Smap.singleton "Assert_failure" (site e.pexp_loc "assert" None))
          (children e)
    | _ -> children e
  and cases_raises cases =
    List.fold_left
      (fun acc (c : Parsetree.case) ->
        let acc =
          match c.pc_guard with Some g -> union acc (go g) | None -> acc
        in
        union acc (go c.pc_rhs))
      Smap.empty cases
  and children e =
    (* union over immediate sub-expressions, one level down *)
    let acc = ref Smap.empty in
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ child -> acc := union !acc (go child));
      }
    in
    Ast_iterator.default_iterator.expr it e;
    !acc
  in
  go d.Callgraph.body

(* ---- fixpoint ----------------------------------------------------------- *)

let pin_of (d : Callgraph.def) annot =
  String.split_on_char ',' annot
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.fold_left
       (fun acc exn ->
         Smap.add exn
           {
             ofile = d.Callgraph.file;
             oline = d.Callgraph.line;
             ocol = 0;
             via = "pinned [@mincut.raises]";
             ocall = None;
           }
           acc)
       Smap.empty

(* a changed key set requeues the callers; a def keeps the origins first
   stored with its current keys *)
let analyze cg =
  Callgraph.solve cg ~bottom:Smap.empty
    ~pinned:(fun d -> Option.map (pin_of d) d.Callgraph.raises_annot)
    ~transfer:(body_raises cg)
    ~equal:(Smap.equal (fun _ _ -> true))

let raise_sets cg =
  let table = analyze cg in
  List.map
    (fun (d : Callgraph.def) ->
      let set = Hashtbl.find table d.Callgraph.id in
      (d.Callgraph.id, List.map fst (Smap.bindings set)))
    (Callgraph.defs_in_order cg)

(* descend [ocall] links to the intrinsic raise site *)
let witness table root exn =
  let origin id = Smap.find exn (Hashtbl.find table id) in
  let chain, last = Callgraph.chain ~link:(fun id -> (origin id).ocall) root in
  (chain, origin last)

(* ---- boundary policies -------------------------------------------------- *)

let policy_names = [ "serve-total"; "pool-no-leak"; "store-typed" ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let in_dir dir (d : Callgraph.def) = contains ~sub:dir d.Callgraph.file

let suffix_roots =
  [
    ("serve-total", "lib/serve", [ "Server.handle_command"; "Server.run" ]);
    ( "pool-no-leak",
      "lib/parallel",
      [ "Pool.helper_serve"; "Pool.run_participant"; "Pool.ensure_helpers" ] );
  ]

(* roots of the empty-set policies, in deterministic def order *)
let policy_roots cg =
  List.map
    (fun (policy, dir, suffixes) ->
      ( policy,
        List.filter_map
          (fun (d : Callgraph.def) ->
            if
              (in_dir dir d
              && List.exists
                   (fun suffix -> Srcread.has_suffix ~suffix d.Callgraph.id)
                   suffixes)
              || d.Callgraph.boundary_annot = Some policy
            then Some d.Callgraph.id
            else None)
          (Callgraph.defs_in_order cg) ))
    suffix_roots

type summary = {
  defs_raising : int;  (** defs with a non-empty inferred raise set *)
  policies : (string * int) list;  (** policy -> enforced root/def count *)
}

let exn_display = function "?" -> "an unnamed exception" | e -> e

let check cg =
  let table = analyze cg in
  let findings = ref [] in
  let add file line col message =
    findings :=
      { Lint.file; line; col; rule = "exn-escape"; message } :: !findings
  in
  (* a typo'd policy name must not silently disable enforcement *)
  List.iter
    (fun (d : Callgraph.def) ->
      match d.Callgraph.boundary_annot with
      | Some p when not (List.mem p policy_names) ->
          add d.Callgraph.file d.Callgraph.line 0
            (Printf.sprintf "unknown [@mincut.boundary %S]; expected %s" p
               (String.concat ", " policy_names))
      | _ -> ())
    (Callgraph.defs_in_order cg);
  let roots = policy_roots cg in
  (* empty-set policies: every exception a root can leak is a finding,
     reported at the intrinsic raise site with its call-chain witness *)
  List.iter
    (fun (policy, ids) ->
      List.iter
        (fun root ->
          match Hashtbl.find_opt table root with
          | None -> ()
          | Some set ->
              Smap.iter
                (fun exn _ ->
                  let chain, o = witness table root exn in
                  add o.ofile o.oline o.ocol
                    (Printf.sprintf "boundary %s: %s may raise %s (%s): %s"
                       policy root (exn_display exn) o.via
                       (String.concat " -> " chain)))
                set)
        ids)
    roots;
  (* store-typed: report the defs where [Store_error] crosses out of
     lib/store (direct raise, or inherited from a store def); callers
     further up inherit through those and are not re-reported *)
  let store_typed = ref 0 in
  List.iter
    (fun (d : Callgraph.def) ->
      if not (in_dir "lib/store" d) then begin
        incr store_typed;
        match
          Option.bind
            (Hashtbl.find_opt table d.Callgraph.id)
            (Smap.find_opt "Store_error")
        with
        | Some o
          when (match o.ocall with
               | None -> true
               | Some callee -> (
                   match Callgraph.find_def cg callee with
                   | Some cd -> in_dir "lib/store" cd
                   | None -> false)) ->
            let chain, o = witness table d.Callgraph.id "Store_error" in
            add o.ofile o.oline o.ocol
              (Printf.sprintf
                 "boundary store-typed: %s lets Store_error escape the store \
                  layer (%s): %s"
                 d.Callgraph.id o.via
                 (String.concat " -> " chain))
        | _ -> ()
      end)
    (Callgraph.defs_in_order cg);
  let defs_raising =
    Hashtbl.fold
      (fun _ s acc -> if Smap.is_empty s then acc else acc + 1)
      table 0
  in
  let summary =
    {
      defs_raising;
      policies =
        List.map (fun (p, ids) -> (p, List.length ids)) roots
        @ [ ("store-typed", !store_typed) ];
    }
  in
  (summary, List.rev !findings)
