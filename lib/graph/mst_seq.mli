(** Sequential minimum spanning trees.

    [kruskal_by] takes an arbitrary total order on edges; the tests run
    it under Thorup's load order as the reference that the incremental
    packing ([Tree_packing.greedy]) must match.  Plain
    weight-ordered variants ([kruskal], [prim], [boruvka]) serve as
    cross-checking references for each other and for the distributed
    MST. *)

val kruskal_by : Graph.t -> cmp:(Graph.edge -> Graph.edge -> int) -> int list
(** Minimum spanning forest under the given total order; returns edge
    ids.  For a connected graph this is a spanning tree.  Ties must be
    broken consistently by [cmp] for deterministic packings (compare ids
    last). *)

val kruskal : Graph.t -> int list
(** [kruskal_by] ordered by weight then id. *)

val prim : Graph.t -> int list
(** Prim's algorithm from node 0; raises [Invalid_argument] when the
    graph is disconnected. *)

val boruvka : Graph.t -> int list
(** Borůvka phases (the sequential mirror of the distributed MST);
    minimum spanning forest. *)

val tree_weight : Graph.t -> int list -> int
(** Total weight of the given edge ids. *)

val is_spanning_tree : Graph.t -> int list -> bool
(** Whether the ids form a spanning tree of a connected graph. *)
