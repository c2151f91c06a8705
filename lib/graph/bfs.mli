(** Breadth-first search (unweighted distances).

    BFS is the workhorse of the CONGEST layer: the global communication
    structure of the paper's algorithm is a BFS tree of the network, and
    the diameter [D] appearing in every bound is a BFS quantity. *)

type result = {
  dist : int array;    (** hop distance from the source set; [-1] if unreachable *)
  parent : int array;  (** BFS-tree parent; [-1] for sources / unreachable *)
  order : int list;    (** visited nodes in dequeue order (sources first) *)
}

val run : Graph.t -> source:int -> result
(** Single-source BFS. *)

val run_multi : Graph.t -> sources:int list -> result
(** Multi-source BFS (distance to the nearest source). *)

val eccentricity : Graph.t -> int -> int
(** Max hop distance from a node to any reachable node. *)

val is_connected : Graph.t -> bool
(** Whether every node is reachable from node 0 (true for n <= 1). *)

val component_of : Graph.t -> int -> Mincut_util.Bitset.t
(** Set of nodes reachable from the given node. *)
