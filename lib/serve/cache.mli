(** Bounded content-addressed cache with LRU eviction.

    Maps string keys (see {!Graph_key}) to values, evicting the least
    recently used entries when either bound is exceeded:

    - [max_entries]: number of resident entries;
    - [max_cost]: total of a caller-supplied per-value cost (the serving
      layer charges roughly the summary's footprint in words, so a cache
      of huge cut sides cannot grow without bound even when the entry
      count is small).

    Lookup, insert and eviction are O(1): the table and the eviction
    rule are {!Mincut_util.Lru}'s.  Every operation holds the cache's
    rank-20 {!Mincut_parallel.Lockcheck} mutex (above the scheduler's
    rank 10, below metrics' rank 30 in the serving layer's lock order),
    so concurrent domains may share one cache and the lock-discipline
    checker audits every acquisition at test time. *)

type 'v t

val create : ?max_entries:int -> ?max_cost:int -> cost:('v -> int) -> unit -> 'v t
(** [create ~cost ()] makes an empty cache.  Defaults: [max_entries] 4096,
    [max_cost] 16_777_216 (16M cost units).  A single value costlier than
    [max_cost] is admitted alone and evicted at the next insert.
    Raises [Invalid_argument] if a bound is not positive. *)

val find : 'v t -> string -> 'v option
(** [find t k] returns the cached value and marks it most recently used. *)

val add : 'v t -> string -> 'v -> unit
(** Insert or replace, making the entry most recently used, then evict
    from the LRU end until both bounds hold. *)

val mem : 'v t -> string -> bool
val length : 'v t -> int

val total_cost : 'v t -> int
(** Sum of [cost v] over resident values. *)

val evictions : 'v t -> int
val keys_mru_first : 'v t -> string list
(** Resident keys from most to least recently used (test hook for
    asserting eviction order). *)
