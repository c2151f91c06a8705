(** The chunked graph: a [Graph]-shaped read surface over on-disk
    chunks with LRU residency.

    Opens a directory produced by {!Bulk_loader} and answers degree /
    neighbor-iteration / weight queries by faulting the owning chunk in
    through a {!Residency} manager.  Algorithms that sweep
    chunk-at-a-time ([iter_chunks], or any node order that visits
    chunks contiguously — node ids are chunk-major by construction)
    touch each chunk once per pass regardless of the byte budget;
    random access degrades gracefully into hits/misses/evictions, all
    counted.

    The manifest's structural hash uses the same recipe as
    [Mincut_serve.Graph_key.structural_hash], so a chunked graph and
    its in-memory [Graph.t] image address the same cache entries. *)

exception Store_error of string
(** Raised when a chunk fails to load during access (missing file,
    version mismatch, CRC failure, …) with the underlying
    {!Chunk_io.error_message}.  [open_store] itself returns [result];
    the exception covers lazy per-chunk faults only. *)

type t

val open_store :
  ?instruments:Residency.instruments ->
  dir:string ->
  budget:int ->
  unit ->
  (t, string) result
(** Validate the manifest and set up residency with [budget] bytes.
    Chunks load lazily on first touch. *)

val n : t -> int
val m : t -> int
val total_weight : t -> int
val num_chunks : t -> int
val chunk_bits : t -> int

val total_bytes : t -> int
(** Bytes if every chunk were resident at once (exact, from the
    manifest) — the number a budget should undercut to exercise
    eviction. *)

val manifest_bytes : Chunk_io.manifest -> int
(** {!total_bytes} computed from a manifest alone, so a caller can pick
    a budget before opening the store. *)

val structural_hash : t -> int64
(** The manifest's hash (computed once at load time). *)

val compute_structural_hash : t -> int64
(** Recompute by sweeping every chunk — reads and CRC-checks the whole
    store.  Equals {!structural_hash} unless the directory was
    tampered with. *)

val chunk : t -> int -> Chunk.t
(** Chunk by id, faulting it resident.  Raises {!Store_error}. *)

val iter_chunks : t -> f:(Chunk.t -> unit) -> unit
(** Every chunk in ascending id order (one residency pass). *)

val weighted_degree : t -> int -> int

val iter_neighbors : t -> int -> f:(int -> int -> unit) -> unit
(** [f neighbor weight] over node [v]'s slots in canonical order. *)

val stats : t -> Residency.stats

val drop_resident : t -> unit
(** Cold-start the residency (counters survive). *)

val to_graph : t -> Mincut_graph.Graph.t
(** Materialize as an in-memory graph — O(n + m) memory, for tests and
    for handing sub-ladder-size graphs to the solvers. *)
