(** Content addressing for solve requests.

    Two requests hit the same cache slot exactly when they are guaranteed
    to produce bit-identical summaries: same graph {e structure}, same
    algorithm (including ε), same seed, same tree budget, and same
    round-accounting parameters.  The graph part is a {e structural}
    digest — the canonical edge list, i.e. the sorted multiset of
    [(u, v, w)] triples plus the node count — so queries that present the
    same graph with its edges permuted (the common case when clients
    re-serialize adjacency in arbitrary order) still hit.

    Structural hashing is safe precisely because every algorithm behind
    [Mincut_core.Api] is a function of the edge {e multiset}, not of edge
    ids: the deterministic packing's id-based tie-breaking is re-derived
    from the canonical order when a request is admitted (see
    {!canonicalize}), so a permuted presentation first normalizes to the
    same [Graph.t] and then solves identically. *)

val structural_hash : Mincut_graph.Graph.t -> int64
(** FNV-1a digest of [n] followed by the sorted [(u, v, w)] triples.
    Invariant under permutation of the edge list; sensitive to node
    count, weights, and multiplicity. *)

val canonicalize : Mincut_graph.Graph.t -> Mincut_graph.Graph.t
(** The canonical representative of the graph's structure class: same
    node set, edges sorted by [(u, v, w)] and renumbered in that order.
    Solving the canonical graph makes the full summary (value, side,
    rounds, breakdown) a function of the structure alone, which is what
    lets a cache entry answer a permuted re-presentation bit-identically. *)

val params_id : Mincut_core.Params.t -> string
(** Compact stable rendering of every [Params.t] field that can affect a
    summary, so parameter changes never alias cache entries. *)

val key :
  algorithm:Mincut_core.Api.algorithm ->
  seed:int ->
  trees:int option ->
  params:Mincut_core.Params.t ->
  Mincut_graph.Graph.t ->
  string
(** The full cache key.  Besides the structural digest it embeds [n],
    [m] and the total weight as plain guards, so even a (cosmically
    unlikely) 64-bit collision cannot pair graphs of different sizes. *)

val versioned_key :
  algorithm:Mincut_core.Api.algorithm ->
  seed:int ->
  trees:int option ->
  params:Mincut_core.Params.t ->
  Mincut_graph.Handle.t ->
  string
(** Cache key for the live version of a {!Mincut_graph.Handle} — same
    coordinates as {!key} but under an ["inc|"] namespace, with the
    handle's O(|delta|)-rolled commutative multiset digest in place of
    the O(m log m) sorted-edge-list hash, and channel count in place of
    [m].  The digest is order-insensitive by construction, so a delta
    chain that returns to a previously seen structure re-derives the
    {e same} key and hits the entry cached at the earlier version (the
    cache's version-chain lookup); compaction changes neither the digest
    nor the counts, so keys survive it. *)
