(** Breadth-first search (unweighted distances).

    BFS is the workhorse of the CONGEST layer: the global communication
    structure of the paper's algorithm is a BFS tree of the network, and
    the diameter [D] appearing in every bound is a BFS quantity: the
    solvers read it as {!eccentricity} of one node, the height of the BFS
    tree rooted there, without building the tree. *)

type result = {
  dist : int array;    (** hop distance from the source; [-1] if unreachable *)
  parent : int array;
      (** the least-id neighbour one level up; [-1] for the source / unreachable *)
}

val run : Graph.t -> source:int -> result
(** Single-source BFS. *)

val eccentricity : Graph.t -> int -> int
(** Max hop distance from a node to any reachable node. *)

val is_connected : Graph.t -> bool
(** Whether every node is reachable from node 0 (true for n <= 1). *)

val component_of : Graph.t -> int -> Mincut_util.Bitset.t
(** Set of nodes reachable from the given node. *)
