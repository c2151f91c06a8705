(* Hot-path allocation lint.

   The allocation diet on the drive loop (ROADMAP item 5) is tracked
   dynamically as [minor_words_per_run] in BENCH_sim.json; this pass
   makes it a gated budget instead of a bench aspiration by counting
   *syntactic allocation sites* in the two places the per-round cost
   lives: the round loop inside [Network.drive], and every CONGEST step
   handler (the [step] field of each program literal).

   A site is anything that must allocate each time the enclosing code
   runs: closures, tuples, records, list conses, array/lazy literals,
   partial applications of known defs, and [Printf]/[Format] calls that
   are not on an error path (an allocation feeding [failwith]/
   [invalid_arg]/[raise] costs nothing in steady state).  Counts are
   static, so a site inside a per-neighbor [List.map] is one site — the
   budget bounds code shape, not dynamic allocation volume; the bench
   metric stays the ground truth the budgets are calibrated against. *)

type site_kind =
  | Closure
  | Tuple
  | Record
  | Cons
  | Array_lit
  | Lazy_block
  | Partial
  | Printf_call

let site_kind_name = function
  | Closure -> "closure"
  | Tuple -> "tuple"
  | Record -> "record"
  | Cons -> "cons"
  | Array_lit -> "array"
  | Lazy_block -> "lazy"
  | Partial -> "partial-application"
  | Printf_call -> "printf"

type site = { skind : site_kind; sline : int; scol : int }

type target = {
  tid : string;  (** e.g. ["Mincut_congest.Network.drive/round-loop"] *)
  tfile : string;
  tline : int;
  budget : int;
  sites : site list;
}

(* Calibrated against the shipped tree with ~25% headroom (see the
   per-target counts in the --json report next to these budgets, and
   minor_words_per_run in BENCH_sim.json for the dynamic ground truth).
   Raising one is a reviewed decision, exactly like raising a bench
   gate. *)
(* worst shipped step handler: 14 sites (Primitives.bfs_program);
   Network.drive's round loop: 0 (its channel lookup calls the
   top-level search [bisect], so it builds no closure) *)
let default_step_budget = 18
let default_loop_budget = 8

let raising_heads = [ "failwith"; "invalid_arg"; "raise"; "raise_notrace" ]

let is_raising name =
  List.mem name raising_heads || Srcread.has_suffix ~suffix:"violate" name

let is_printf name =
  let p = Srcread.strip_stdlib name in
  let pre s =
    String.length p >= String.length s && String.sub p 0 (String.length s) = s
  in
  pre "Printf." || pre "Format."

(* count sites inside [e]; [skip_head_lambda] drops the leading funs of
   a handler (the handler closure itself is allocated once, not per
   round) *)
let count_sites ~cg ~(from : Callgraph.def) ~skip_head_lambda e =
  let sites = ref [] in
  let in_error = ref false in
  let add skind loc =
    let sline, scol = Srcread.lc loc in
    sites := { skind; sline; scol } :: !sites
  in
  let resolve_arity name =
    match Callgraph.resolve cg ~from name with
    | Some id -> (
        match Callgraph.find_def cg id with
        | Some d when d.Callgraph.arity > 0 -> Some d.Callgraph.arity
        | _ -> None)
    | None -> None
  in
  let rec expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ ->
        add Closure e.pexp_loc;
        Ast_iterator.default_iterator.expr it e
    | Pexp_tuple _ ->
        add Tuple e.pexp_loc;
        Ast_iterator.default_iterator.expr it e
    | Pexp_record _ ->
        add Record e.pexp_loc;
        Ast_iterator.default_iterator.expr it e
    | Pexp_construct ({ txt = Longident.Lident "::"; _ }, arg) -> (
        add Cons e.pexp_loc;
        (* the (head, tail) pair inside a cons cell is part of the cons
           block, not a second allocation *)
        match arg with
        | Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ } ->
            expr it hd;
            expr it tl
        | Some a -> expr it a
        | None -> ())
    | Pexp_array _ ->
        add Array_lit e.pexp_loc;
        Ast_iterator.default_iterator.expr it e
    | Pexp_lazy _ ->
        add Lazy_block e.pexp_loc;
        Ast_iterator.default_iterator.expr it e
    | Pexp_apply (f, args) -> (
        let head =
          match f.Parsetree.pexp_desc with
          | Pexp_ident { txt; _ } ->
              Some (Srcread.strip_stdlib (Srcread.name_of txt))
          | _ -> None
        in
        match head with
        | Some name when is_raising name ->
            let saved = !in_error in
            in_error := true;
            List.iter (fun (_, a) -> expr it a) args;
            in_error := saved
        | Some name ->
            if is_printf name && not !in_error then add Printf_call e.pexp_loc;
            (match resolve_arity name with
            | Some arity when List.length args < arity ->
                add Partial e.pexp_loc
            | _ -> ());
            List.iter (fun (_, a) -> expr it a) args
        | None -> Ast_iterator.default_iterator.expr it e)
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  let rec strip (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, body) when skip_head_lambda -> strip body
    | Pexp_newtype (_, body) when skip_head_lambda -> strip body
    | _ -> e
  in
  it.expr it (strip e);
  List.rev !sites

(* while-loop bodies of one def, innermost not double-counted: each
   top-most while is one target *)
let while_loops (d : Callgraph.def) =
  let loops = ref [] in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_while (_, body) -> loops := (e.Parsetree.pexp_loc, body) :: !loops
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it d.Callgraph.body;
  List.rev !loops

let by_kind sites =
  List.fold_left
    (fun acc s ->
      let k = site_kind_name s.skind in
      match List.assoc_opt k acc with
      | Some n -> (k, n + 1) :: List.remove_assoc k acc
      | None -> acc @ [ (k, 1) ])
    [] sites

let targets ?(budgets = []) cg =
  let budget_for tid default =
    match List.assoc_opt tid budgets with Some b -> b | None -> default
  in
  List.concat_map
    (fun (d : Callgraph.def) ->
      let steps =
        List.mapi
          (fun i (line, step) ->
            let tid =
              if i = 0 then d.Callgraph.id ^ ".step"
              else Printf.sprintf "%s.step#%d" d.Callgraph.id (i + 1)
            in
            {
              tid;
              tfile = d.Callgraph.file;
              tline = line;
              budget = budget_for tid default_step_budget;
              sites =
                count_sites ~cg ~from:d ~skip_head_lambda:true step;
            })
          d.Callgraph.programs
      in
      let loops =
        if Srcread.has_suffix ~suffix:"Network.drive" d.Callgraph.id then
          List.mapi
            (fun i (loc, body) ->
              let tid =
                if i = 0 then d.Callgraph.id ^ "/round-loop"
                else Printf.sprintf "%s/round-loop#%d" d.Callgraph.id (i + 1)
              in
              let tline, _ = Srcread.lc loc in
              {
                tid;
                tfile = d.Callgraph.file;
                tline;
                budget = budget_for tid default_loop_budget;
                sites = count_sites ~cg ~from:d ~skip_head_lambda:false body;
              })
            (while_loops d)
        else []
      in
      steps @ loops)
    (Callgraph.defs_in_order cg)

let check ?budgets cg =
  let ts = targets ?budgets cg in
  let findings =
    List.filter_map
      (fun t ->
        let n = List.length t.sites in
        if n <= t.budget then None
        else
          Some
            {
              Lint.file = t.tfile;
              line = t.tline;
              col = 0;
              rule = "alloc-budget";
              message =
                Printf.sprintf
                  "%s: %d allocation sites over budget %d (%s); every site \
                   here runs per round — shrink it or re-calibrate against \
                   minor_words_per_run"
                  t.tid n t.budget
                  (String.concat ", "
                     (List.map
                        (fun (k, c) -> Printf.sprintf "%s %d" k c)
                        (by_kind t.sites)));
            })
      ts
  in
  (ts, findings)
