(* Static domain-race checker.

   [Lockcheck] verifies lock discipline on the acquisitions that
   actually happen in a run; this pass gives the complementary
   whole-repo guarantee: no top-level [ref]/[Hashtbl]/array/buffer
   state is *reachable at all* from a [Mincut_parallel.Pool] task
   closure except through a [Lockcheck.with_lock] region or an
   [Atomic]/[Domain.DLS] cell.

   Task roots are approximated syntactically: every identifier
   referenced inside an argument of a [Pool.map] application may
   execute on a worker domain, and so may everything
   reachable from it through the call graph.  Any access to an
   unsynchronized global from that closure is a [domain-race] finding,
   reported at the access site with the spawn-to-access witness chain.
   The check is conservative in both directions it can be: accesses
   lexically inside [with_lock] arguments count as guarded even though
   a callee could leak, and accesses guarded by a lock taken further up
   the call chain still flag (allowlist them with a justification). *)

let unsafe_kind = function
  | Callgraph.Atomic | Callgraph.Dls -> false
  | Callgraph.Ref | Callgraph.Table | Callgraph.Array_cell | Callgraph.Buffer ->
      true

(* (spawning def, task-root def) pairs plus direct in-task global
   accesses *)
let spawn_sites cg =
  let roots = ref [] in
  let direct = ref [] in
  List.iter
    (fun (d : Callgraph.def) ->
      List.iter
        (fun (r : Callgraph.refsite) ->
          if r.Callgraph.in_task then
            match Callgraph.resolve cg ~from:d r.Callgraph.name with
            | Some id when Callgraph.find_def cg id <> None ->
                if not (List.exists (fun (_, i) -> i = id) !roots) then
                  roots := (d.Callgraph.id, id) :: !roots
            | Some id when Callgraph.find_global cg id <> None ->
                direct := (d, r, id) :: !direct
            | _ -> ())
        d.Callgraph.refs)
    (Callgraph.defs_in_order cg);
  (List.rev !roots, List.rev !direct)

let finding ~(d : Callgraph.def) ~(r : Callgraph.refsite)
    ~(g : Callgraph.global) ~chain =
  {
    Lint.file = d.Callgraph.file;
    line = r.Callgraph.rline;
    col = r.Callgraph.rcol;
    rule = "domain-race";
    message =
      Printf.sprintf
        "global %s (%s, defined at %s:%d) accessed from a Pool task without \
         Lockcheck.with_lock or Atomic: %s"
        g.Callgraph.gid
        (Callgraph.global_kind_name g.Callgraph.gkind)
        g.Callgraph.gfile g.Callgraph.gline (String.concat " -> " chain);
  }

let check cg =
  let spawns, direct = spawn_sites cg in
  let findings = ref [] in
  let seen = Hashtbl.create 64 in
  let report ~d ~r ~g ~chain =
    let key = (d.Callgraph.id, g.Callgraph.gid) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      findings := finding ~d ~r ~g ~chain :: !findings
    end
  in
  (* direct accesses inside the task closure itself *)
  List.iter
    (fun ((d : Callgraph.def), (r : Callgraph.refsite), gid) ->
      match Callgraph.find_global cg gid with
      | Some g when unsafe_kind g.Callgraph.gkind && not r.Callgraph.guarded ->
          report ~d ~r ~g
            ~chain:[ d.Callgraph.id ^ " (task closure)"; gid ]
      | _ -> ())
    direct;
  (* everything reachable from resolved task roots *)
  let chains =
    Callgraph.reachable cg ~roots:(List.map snd spawns)
  in
  let spawner_of root =
    match List.find_opt (fun (_, i) -> i = root) spawns with
    | Some (s, _) -> s
    | None -> root
  in
  List.iter
    (fun (d : Callgraph.def) ->
      match Hashtbl.find_opt chains d.Callgraph.id with
      | None -> ()
      | Some chain ->
          List.iter
            (fun (r : Callgraph.refsite) ->
              if not r.Callgraph.guarded then
                match Callgraph.resolve cg ~from:d r.Callgraph.name with
                | Some gid -> (
                    match Callgraph.find_global cg gid with
                    | Some g when unsafe_kind g.Callgraph.gkind ->
                        let root = List.hd chain in
                        report ~d ~r ~g
                          ~chain:
                            ((spawner_of root ^ " (spawn)") :: chain @ [ gid ])
                    | _ -> ())
                | None -> ())
            d.Callgraph.refs)
    (Callgraph.defs_in_order cg);
  List.rev !findings
