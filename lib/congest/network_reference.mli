(** The seed CONGEST driver, kept as the golden baseline.

    Semantically identical to {!Network.run} but
    implemented the pre-overhaul way: list mailboxes sorted per node per
    round, a fresh [Hashtbl] of directed-edge word counters every round,
    and per-run neighbor hash tables.  It steps every live node every
    round, so it is also the oracle for {!Network}'s wake-on-mail
    stepping and remembered channel slots.  It exists for two reasons:

    - the equivalence tests diff its full audits against the flat-array
      driver's on the replay workloads, pinning the rewrite to the seed
      semantics bit for bit;
    - the [sim] bench reports the rounds/sec ratio between the two, so
      the hot-path trajectory stays measurable PR over PR.

    Do not use it in pipelines — it is the slow path by construction. *)

val run :
  ?cfg:Config.t ->
  words:('msg -> int) ->
  Mincut_graph.Graph.t ->
  ('state, 'msg) Network.program ->
  'state array * Network.audit
(** Reference counterpart of {!Network.run}. *)
