(** Request scheduler: priority/deadline ordering plus coalescing.

    Submissions accumulate in a pending set; draining produces
    {e batches}.  A batch is all pending requests that share one cache
    key (same structural graph, algorithm, seed, …): the service solves
    the representative once and answers every ticket in the batch — the
    "batching identical-family workloads" the serving layer promises, and
    the reason a flood of duplicate queries costs one CONGEST simulation.

    Batches come out in scheduling order of their {e best} member
    (priority descending, deadline ascending, submission order; see
    {!Request.compare_order}), so a duplicate of an urgent request cannot
    be delayed by having first been submitted with low priority.

    The scheduler never runs anything itself; it is a pure queueing
    structure driven by {!Service}.  Its mutable state is guarded by the
    serving layer's rank-10 {!Mincut_parallel.Lockcheck} mutex — first
    in the scheduler < cache < metrics lock order — so submissions may
    arrive from any domain. *)

type ticket = int
(** Handle identifying one submission within this scheduler. *)

type t

val create : key:(Request.t -> string) -> unit -> t
(** [key] assigns each request its coalescing class — the service passes
    its cache-key function. *)

val submit : t -> Request.t -> ticket
(** Enqueue; tickets are dense and increasing in submission order. *)

val pending : t -> int
(** Number of undrained tickets. *)

val depth : t -> int
(** Number of distinct batches currently pending (≤ [pending t]). *)

val drain : t -> ((ticket * Request.t) list * Request.t) list
(** Remove and return all pending work as coalesced batches in
    scheduling order.  Each batch lists its members in submission order
    (each ticket with the request it was submitted with — members keep
    their own deadlines, which is what lets the service shed expired
    tickets individually) together with the representative request (the
    best-ordered member).  The scheduler is empty afterwards. *)
