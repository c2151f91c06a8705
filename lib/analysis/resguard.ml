(* Resource-safety bracket analysis ("resguard").

   A *acquisition* is an application of a descriptor-creating external
   ([open_in*]/[open_out*], [Unix.openfile]/[Unix.socket]/[Unix.accept],
   [Filename.open_temp_file]).  If any expression between the
   acquisition and the release raises, a straight-line
   [let fd = acquire ... in use; release fd] leaks the descriptor — on
   a long-lived server that is a slow death by EMFILE.  The rule
   ([resource-leak]): every acquisition must be let-bound and either

   - *bracketed*: some bound name appears in the [~finally] argument of
     a [Fun.protect] in the binding's continuation (this also covers
     [Lockcheck.with_lock], which brackets through [Fun.protect]
     internally), or
   - *ownership-transferred*: some bound name is stored into a longer-
     lived structure ([<-] on a field or array cell, [:=],
     [Hashtbl.add]/[replace]) whose owner is responsible for the
     release — the store's [Bulk_loader] writes its group channels into
     [t.channels] and closes them in [finalize].

   [In_channel.with_open_*]/[Out_channel.with_open_*] acquire nothing
   visible and are inherently safe.  An acquisition that is not
   let-bound at all (e.g. [parse (open_in f)]) can never be released on
   a raising path and is always a finding.  Findings land at the
   acquisition site, named with the enclosing def; when the def is
   reachable from a serve/pool boundary root the witness call chain
   from the root is appended. *)

let acquisitions =
  [
    "open_in"; "open_in_bin"; "open_in_gen"; "open_out"; "open_out_bin";
    "open_out_gen"; "Unix.openfile"; "Unix.socket"; "Unix.accept";
    "Filename.open_temp_file";
  ]

let transfer_heads =
  [ "Array.set"; "Array.unsafe_set"; ":="; "Hashtbl.add"; "Hashtbl.replace" ]

let rec unconstrained (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> unconstrained e
  | _ -> e

let acquisition_of (e : Parsetree.expression) =
  match (unconstrained e).pexp_desc with
  | Pexp_apply (f, _) ->
      Option.bind (Srcread.head_name f) (fun name ->
          let name = Srcread.strip_stdlib name in
          List.find_opt
            (fun a -> name = a || Srcread.has_suffix ~suffix:a name)
            acquisitions)
  | _ -> None

let mentions var (e : Parsetree.expression) =
  let found = ref false in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } when n = var -> found := true
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  expr it e;
  !found

(* does [scope] bracket or take ownership of [var]? *)
let released var (scope : Parsetree.expression) =
  let safe = ref false in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> (
        match Option.map Srcread.strip_stdlib (Srcread.head_name f) with
        | Some name
          when name = "Fun.protect"
               || Srcread.has_suffix ~suffix:"Fun.protect" name ->
            List.iter
              (fun (label, (a : Parsetree.expression)) ->
                match label with
                | Asttypes.Labelled "finally" when mentions var a -> safe := true
                | _ -> ())
              args
        | Some name
          when List.exists
                 (fun t -> name = t || Srcread.has_suffix ~suffix:t name)
                 transfer_heads ->
            if List.exists (fun (_, a) -> mentions var a) args then safe := true
        | _ -> ())
    | Pexp_setfield (_, _, rhs) -> if mentions var rhs then safe := true
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  expr it scope;
  !safe

type summary = {
  acquisitions_checked : int;
  bracketed : int;  (** released on all paths (bracket or transfer) *)
}

let check cg =
  let findings = ref [] in
  let checked = ref 0 and ok = ref 0 in
  (* witness chains from the exception-boundary roots, so a leak on a
     serve/pool path names the path that reaches it *)
  let roots = List.concat_map snd (Exnflow.policy_roots cg) in
  let chains = Callgraph.reachable cg ~roots in
  List.iter
    (fun (d : Callgraph.def) ->
      (* acquisition sites that appear as a let-binding's rhs; anything
         acquired outside a binding cannot be bracketed at all *)
      let bound = Hashtbl.create 8 in
      let note_leak loc what detail =
        let line, col = Srcread.lc loc in
        let chain =
          match Hashtbl.find_opt chains d.Callgraph.id with
          | Some c when List.length c > 1 ->
              Printf.sprintf " (reached from %s)" (String.concat " -> " c)
          | _ -> ""
        in
        findings :=
          {
            Lint.file = d.Callgraph.file;
            line;
            col;
            rule = "resource-leak";
            message =
              Printf.sprintf "%s acquired in %s %s%s" what d.Callgraph.id
                detail chain;
          }
          :: !findings
      in
      let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
        (match e.pexp_desc with
        | Pexp_let (_, vbs, cont) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match acquisition_of vb.pvb_expr with
                | None -> ()
                | Some what ->
                    Hashtbl.replace bound (unconstrained vb.pvb_expr).pexp_loc
                      ();
                    incr checked;
                    let vars = Srcread.binding_names vb.pvb_pat in
                    if List.exists (fun v -> released v cont) vars then incr ok
                    else
                      note_leak vb.pvb_expr.pexp_loc what
                        "is not released on all paths (no [Fun.protect \
                         ~finally] bracket or ownership transfer in scope)")
              vbs
        | _ -> ());
        Ast_iterator.default_iterator.expr it e
      in
      let it = { Ast_iterator.default_iterator with expr } in
      (* first pass registers let-bound sites, second flags bare ones *)
      it.expr it d.Callgraph.body;
      let bare (it : Ast_iterator.iterator) (e : Parsetree.expression) =
        (match
           match e.pexp_desc with
           | Pexp_apply _ -> acquisition_of e
           | _ -> None
         with
        | Some what when not (Hashtbl.mem bound e.pexp_loc) ->
            incr checked;
            note_leak e.pexp_loc what
              "is consumed without a binding and can never be released on a \
               raising path"
        | _ -> ());
        Ast_iterator.default_iterator.expr it e
      in
      let it2 = { Ast_iterator.default_iterator with expr = bare } in
      it2.expr it2 d.Callgraph.body)
    (Callgraph.defs_in_order cg);
  ({ acquisitions_checked = !checked; bracketed = !ok }, List.rev !findings)
