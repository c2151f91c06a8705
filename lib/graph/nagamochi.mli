(** Nagamochi–Ibaraki maximum-adjacency scan and sparse certificates.

    The Ghaffari–Kuhn (2+ε) baseline is, at heart, a distributed Matula
    approximation, and Matula's algorithm is built on the NI forest
    decomposition: scanning vertices in maximum-adjacency order assigns
    every edge a forest index [q(e)] such that
    - the subgraph of edges with index ≤ k (the k-certificate) preserves
      every cut of value ≤ k, and
    - the endpoints of an edge with index q are at least q-edge-connected,
      so such an edge is safe to contract when hunting for cuts < q.

    Weighted edges occupy the index interval
    [\[low(e), low(e) + w(e) - 1\]] (weight = multiplicity view). *)

type scan = {
  order : int array;     (** vertices in maximum-adjacency order *)
  edge_low : int array;  (** per edge id: lowest forest index, >= 1 *)
}

val scan : Graph.t -> scan
(** One MA scan from vertex 0.  O((n + m) log n). *)

val certificate : Graph.t -> k:int -> Graph.t
(** Sparse k-certificate: each edge keeps weight
    [min w (k - low + 1)] (dropped if non-positive).  Preserves all cuts
    of value ≤ k and has total weight ≤ k·(n-1). *)

val contract_above : Graph.t -> k:int -> Graph.t * int array
(** Contract every edge with a unit beyond forest [k] ([low + w - 1 > k]);
    returns the contracted graph and the node map (original node ->
    contracted node).  Safe when λ ≤ k: no minimum cut separates the
    endpoints of a contracted edge. *)
