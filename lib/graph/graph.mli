(** Weighted undirected multigraphs with integer weights.

    This is the substrate every other library builds on.  Nodes are the
    integers [0 .. n-1]; edges carry a positive integer weight, which the
    min-cut algorithms treat as a capacity (equivalently, a multiplicity
    of parallel unit edges — the view Karger's sampling lemma takes).

    The structure is immutable after construction: its one adjacency, a
    CSR index of [(neighbor, edge_id)] slots per node, lets algorithms
    identify edges uniquely even in the presence of parallel edges. *)

type edge = private { id : int; u : int; v : int; w : int }
(** An undirected edge.  Construction normalizes [u < v]; [w >= 1].
    [id] is the index of the edge in [edges]. *)

type t
(** An immutable weighted undirected multigraph. *)

val max_nodes : int
(** The largest node count (2{^22}) that a size read from input may ask
    for: a serve [GRAPH] header and a named generator family both refuse
    more before they allocate, and so does a DIMACS [p] line.  Building a
    graph allocates three words per node before it reads an edge, so the
    cap bounds that up-front cost near 100 MB. *)

val create : n:int -> (int * int * int) list -> t
(** [create ~n edges] builds a graph on nodes [0 .. n-1] from
    [(u, v, w)] triples.  Raises [Invalid_argument] on out-of-range
    endpoints, self loops, or non-positive weights.  Parallel edges are
    kept (multigraph semantics). *)

val of_array : n:int -> (int * int * int) array -> t
(** Array-input variant of [create]. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of edges. *)

val edge : t -> int -> edge
(** [edge g id] fetches an edge by index; [0 <= id < m g]. *)

val edges : t -> edge array
(** All edges.  Do not mutate. *)

val weight : t -> int -> int
(** Weight of edge [id]. *)

val endpoints : t -> int -> int * int
(** [(u, v)] with [u < v]. *)

val other_endpoint : t -> int -> int -> int
(** [other_endpoint g id x] is the endpoint of edge [id] that is not [x].
    Raises [Invalid_argument] if [x] is not an endpoint. *)

val iter_adj : t -> int -> (int -> int -> unit) -> unit
(** [iter_adj g v f] calls [f neighbor edge_id] for each edge incident
    to [v], in its CSR row's (neighbor, edge id) order. *)

val degree : t -> int -> int
(** Number of incident edges (with multiplicity). *)

val weighted_degree : t -> int -> int
(** [δ(v)]: sum of weights of incident edges — the quantity in Karger's
    lemma. *)

val min_degree_node : t -> int
(** The lowest-index node of least weighted degree ([0] when [n <= 1]). *)

(** {2 Flat CSR adjacency index}

    The adjacency itself, in compressed-sparse-row form, built once at
    construction by counting passes: node [v]'s directed slots are
    [csr_offsets g .(v) .. csr_offsets g .(v+1) - 1]; slot [s] is the
    directed edge [v -> csr_neighbors g .(s)] carried by undirected edge
    [csr_edge_ids g .(s)].  Slots are sorted by (neighbor, edge id)
    within each node.  The CONGEST simulator indexes its
    per-directed-edge counters by slot, so its hot loop touches only
    these flat arrays; {!iter_adj} walks one row. *)

val csr_offsets : t -> int array
(** Length [n + 1]; do not mutate. *)

val csr_neighbors : t -> int array
(** Length [2m] (one slot per edge direction); do not mutate. *)

val csr_edge_ids : t -> int array
(** Length [2m]; [csr_edge_ids g .(s)] is the undirected edge realizing
    slot [s].  Do not mutate. *)

val total_weight : t -> int
(** Sum of all edge weights. *)

val iter_edges : (edge -> unit) -> t -> unit

val fold_edges : ('a -> edge -> 'a) -> 'a -> t -> 'a

val sub_by_edges : t -> keep:(edge -> bool) -> t
(** Subgraph on the same node set containing exactly the edges selected
    by [keep] (edge ids are renumbered). *)

val reweight : t -> f:(edge -> int) -> t
(** Same topology with new weights [f e] (edges with [f e <= 0] are
    dropped).  [f] is evaluated exactly once per edge, in edge-id order
    — callers thread RNG draws through it. *)

val cut_value : t -> in_cut:(int -> bool) -> int
(** [cut_value g ~in_cut] is [C(X)] for [X = { v | in_cut v }]: the total
    weight of edges with exactly one endpoint in [X].  This is the
    defining quantity of the paper (Section 1). *)

val cut_of_bitset : t -> Mincut_util.Bitset.t -> int
(** [cut_value] specialized to a bitset side. *)

val equal_structure : t -> t -> bool
(** Same node count and identical (u, v, w) edge multiset. *)
