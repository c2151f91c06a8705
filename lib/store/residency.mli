(** LRU residency manager: which chunks stay in memory.

    The store keeps at most [budget] bytes of chunks resident in a
    {!Mincut_util.Lru} that charges each chunk its bytes.  Every access
    marks the chunk most recently used (O(1)); a miss loads through the
    [load] callback and then evicts from the cold end until the budget
    holds again.  The chunk just returned is never evicted — when a
    single chunk exceeds the whole budget, it stays resident alone, so
    [bytes_resident] is bounded by [max budget (largest single chunk)]
    and by [budget] whenever every chunk fits.

    Recency is a logical order, not wall time, so access traces replay
    deterministically.

    Counters (hits / misses / evictions / bytes resident) are kept
    internally and mirrored through an optional {!instruments} sink —
    the serving layer plugs its [Metrics] registry in there
    ({!Mincut_serve.Store_metrics}) without this library depending on
    it. *)

type instruments = {
  on_hit : unit -> unit;
  on_miss : unit -> unit;
  on_eviction : unit -> unit;
  on_bytes_resident : int -> unit;  (** called after every residency change *)
}

type stats = {
  hits : int;
  misses : int;  (** equals the number of chunk loads *)
  evictions : int;
  resident : int;  (** chunks currently resident *)
  bytes_resident : int;
  budget : int;
}

type t

val create : ?instruments:instruments -> budget:int -> load:(int -> Chunk.t) -> unit -> t
(** [budget] is in bytes and must be positive. *)

val get : t -> int -> Chunk.t
(** Fetch chunk [cid], loading and evicting as needed.  Exceptions from
    [load] propagate (corrupt chunks surface as
    {!Chunked_graph.Store_error}). *)

val stats : t -> stats

val drop_all : t -> unit
(** Evict everything (counted as evictions); counters survive.  Used by
    tests and by sweeps that want a cold start. *)
