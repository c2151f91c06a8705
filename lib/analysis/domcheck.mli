(** Static domain-race checker ([domain-race]).

    Whole-repo complement to the runtime {!Mincut_parallel.Lockcheck}: flags top-level
    mutable state ([ref]/[Hashtbl]/array/buffer globals) whose accessor
    functions are reachable from a [Pool.map]/[Pool.map_reduce] task
    closure without passing (lexically) through [Lockcheck.with_lock],
    unless the global is an [Atomic] or [Domain.DLS] cell.  Findings
    land on the access site and carry the spawn-to-access witness
    chain.  Deliberately conservative: locks taken further up the call
    chain still flag — allowlist those with a justification. *)

val check : Callgraph.t -> Lint.finding list
