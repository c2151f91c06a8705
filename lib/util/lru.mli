(** A keyed table kept in least-recently-used order.

    Each entry carries a caller-supplied cost, and the table keeps their
    running total.  Lookup, insert and the eviction of one entry are
    O(1): a hash table of nodes of an intrusive doubly-linked recency
    list.  Recency is a logical order, not wall time, so a sequence of
    calls replays deterministically.

    The eviction rule lives here: {!trim} evicts from the cold end while
    the caller's bound is exceeded, but never the last entry left, so a
    single entry over the whole bound stays resident alone.  The serve
    layer's result cache ({!Mincut_serve.Cache}) and the chunk store's
    residency ({!Mincut_store.Residency}) are both this table under a
    different bound.

    Not thread-safe: a table shared across domains needs its caller's
    lock. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val find : ('k, 'v) t -> 'k -> 'v option
(** The entry's value, marking it most recently used. *)

val add : ('k, 'v) t -> 'k -> 'v -> cost:int -> unit
(** Insert or replace, making the entry most recently used.  Evicts
    nothing: call {!trim} after. *)

val trim : ('k, 'v) t -> over:(unit -> bool) -> int
(** Evict least recently used entries while [over ()] holds and more
    than one entry is resident; returns how many were evicted. *)

val clear : ('k, 'v) t -> int
(** Evict every entry (each counted in {!evictions}); returns how many
    were evicted. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership, without touching recency. *)

val length : ('k, 'v) t -> int

val total_cost : ('k, 'v) t -> int
(** Sum of the costs of the resident entries. *)

val evictions : ('k, 'v) t -> int
(** Entries evicted by {!trim} and {!clear} so far (a replace is not an
    eviction). *)

val keys_mru_first : ('k, 'v) t -> 'k list
(** Resident keys from most to least recently used. *)
