(** Deterministic pseudo-random number generation.

    Every randomized component of the library threads an explicit [Rng.t]
    so that experiments and tests are reproducible from a single integer
    seed.  The generator is SplitMix64, which is small, fast, and passes
    BigCrush; it is more than adequate for simulation workloads. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; the two
    subsequently produce independent-looking streams.  Used to give each
    trial / node / tree its own stream without correlation. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val binomial : t -> int -> float -> int
(** [binomial t n p] samples the number of successes among [n] independent
    [p]-coins.  Exact (inversion / direct simulation), intended for the
    modest [n] used by skeleton sampling. *)

val any_success : t -> int -> float -> bool
(** [any_success t n p]: whether at least one of [n] independent
    [p]-coins succeeds, in O(1) expected time whatever [n] is.  While
    [n·p <= 256] it draws exactly as [binomial t n p > 0] (same answer,
    same generator state after); above that it makes one uniform draw
    against [1 − (1 − p)^n]. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of
    a [p]-coin; used to skip over non-sampled edges in sparse sampling.
    Requires [0 < p <= 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
