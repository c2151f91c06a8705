(** Shared deterministic parallel runtime: data-parallel map over a
    persistent pool of OCaml 5 domains with work stealing.

    {b Persistence.}  Worker domains are spawned lazily, once per
    process, and then reused by every subsequent [map] from any pool
    value — a [t] is a lightweight width configuration over one shared
    domain set, so the serving layer, the solver pipelines and the
    benches all draw from the same domains instead of paying
    spawn/join per call.  Idle workers block on a condition variable;
    an [at_exit] hook shuts them down so processes terminate cleanly.

    {b Work stealing.}  A [map] over [n] jobs installs one batch: the
    index range is split into per-participant deques (contiguous chunk
    ranges).  Each participant pops chunks from the front of its own
    deque; a participant that runs dry scans the others in a fixed
    deterministic order and steals the back half of the first
    non-empty deque it finds — chunk-granular splitting, so skewed
    task sizes load-balance instead of serializing behind the largest
    round-robin share.

    {b Determinism.}  [map] returns results in input order — the only
    scheduling-dependent value anywhere is {e which domain} computes
    each slot, never {e what} goes into it.  Combined with the
    repo-wide discipline that jobs share no mutable state (each worker
    gets its own graph copy / RNG derived from explicit seeds), every
    consumer of the pool is bit-identical to its sequential run under
    any steal order: the exact and approx pipelines assert this
    property under qcheck, and the serving cache relies on it.

    With [workers = 1] (or single-element inputs, or on hosts where
    [Domain.recommended_domain_count () = 1]) no domain is ever
    spawned and the map degrades to a plain sequential loop.  A [map]
    issued from inside a worker (nested parallelism) also runs
    sequentially inline rather than deadlocking on the shared pool. *)

type t

val create : ?workers:int -> unit -> t
(** Default worker count: {!recommended_workers}[ ()].  Values < 1 are
    clamped to 1. *)

val sequential : t
(** A pool with one worker: [map sequential] is [Array.map]. *)

val workers : t -> int

val sizing : recommended:int -> int
(** The default-width policy, exposed pure for tests: [1] when
    [recommended <= 1] (a 1-core host gains nothing from domains —
    don't spawn any), otherwise [min 8 recommended] (the simulator is
    memory-bandwidth-hungry; more domains than memory channels buys
    nothing). *)

val recommended_workers : unit -> int
(** [sizing ~recommended:(Domain.recommended_domain_count ())]. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f jobs] applies [f] to every job on the shared domain set
    and returns results in input index order.  If any application
    raises, the remaining jobs still run to completion and the first
    (lowest-index) exception is re-raised in the calling domain. *)

(** {1 Pool statistics}

    Process-global counters over the shared runtime, for bench
    honesty: a 1-core CI run must show [spawns = 0], and consecutive
    serve solves must grow [tasks] without growing [spawns] (the
    domains persist). *)

type stats = {
  spawns : int;   (** worker domains spawned since process start *)
  steals : int;   (** successful chunk steals across all batches *)
  tasks : int;    (** jobs executed through [map] (any path) *)
  batches : int;  (** parallel batches installed on the shared runtime *)
}

val stats : unit -> stats
