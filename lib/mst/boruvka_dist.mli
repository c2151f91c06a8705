(** Distributed minimum spanning tree (synchronous Borůvka / GHS-style),
    executed as real message-passing programs on the CONGEST engine.

    The paper takes the Õ(√n + D)-round Kutten–Peleg MST as a black box;
    this module provides the repo's *executable* distributed MST so that
    the substrate is real: fragments grow by repeatedly (a) learning
    neighboring fragment ids (1 round), (b) convergecasting the minimum
    outgoing edge to the fragment leader, (c) broadcasting the decision
    and handshaking across the chosen edge, and (d) flooding the merged
    fragment's new id while re-orienting the fragment tree.  All four
    steps are per-node message programs; only the choice of the merged
    fragment's leader (min node id, resolved with a union-find) is an
    orchestration shortcut, which changes leader identity but not the
    communication structure.

    The edge set produced is exactly the sequential Borůvka MST under
    the same (weight, edge id) total order, which tests exploit.

    Worst-case rounds are O(n log n) like classic GHS — when the
    min-cut pipeline needs the Õ(√n + D) figure it charges the
    Kutten–Peleg bound instead (see {!Mincut_core.Params}); the real run
    here serves correctness and the engine audit. *)

type result = {
  edge_ids : int list;      (** MST (or minimum spanning forest) edges *)
  phases : int;             (** Borůvka phases executed (≤ ⌈log₂ n⌉) *)
  cost : Mincut_congest.Cost.t;
      (** measured rounds: one [Executed]-dominated span per Borůvka
          phase, with the four real sub-programs as children *)
}

val run : ?cfg:Mincut_congest.Config.t -> Mincut_graph.Graph.t -> result
