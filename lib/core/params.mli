(** Tunables shared by the distributed min-cut pipeline.

    All round bounds charged for imported subroutines live here so that
    every "we charge the published bound" substitution of DESIGN.md is
    explicit, in one place, and adjustable by experiments. *)

type t = {
  congest : Mincut_congest.Config.t;  (** engine discipline parameters *)
  run_real_primitives : bool;
      (** when true (default), steps that have real message-level
          implementations (BFS tree, intra-fragment aggregation) execute
          on the engine and their measured rounds are used; when false,
          their analytic schedules are charged instead (fast mode for
          large parameter sweeps) *)
}

val default : t

val fast : t
(** [run_real_primitives = false]; used by large benchmark sweeps. *)

val log_star : int -> int
(** Iterated logarithm (base 2), ≥ 1 for n ≥ 2. *)

val kp_mst_rounds : t -> n:int -> diameter:int -> int
(** Rounds charged for one Kutten–Peleg MST: the bare
    [⌈√n⌉·log* n + D] — published analyses hide a constant, which
    benchmark series divide out anyway.  No field of [t] changes it. *)

val kp_partition_rounds : t -> n:int -> diameter:int -> int
(** Rounds charged for the KP tree partition ([KP98, §3.2]); same form
    as the MST bound (the paper's footnote: the partition falls out of
    the MST computation). *)

val sqrt_target : n:int -> int
(** ⌈√n⌉ — the fragment height threshold of Step 1. *)

val one_respect_charged_rounds :
  t -> n:int -> height:int -> fragments:int -> max_frag_height:int -> int
(** Charged schedule for one full Theorem 2.1 pass over a BFS tree of
    height [height] partitioned into [fragments] fragments of height at
    most [max_frag_height]: the sum of [One_respect.run]'s analytic
    spans (its fast mode) with every run-measured edge load replaced by
    its structural maximum.  This is what scale-ladder sizes charge when
    the graph is too large to execute the pipeline — Θ(√n·log* n + D)
    when the fragment geometry meets the KP contract.  The in-memory
    fast mode is tested to stay under this charge point-for-point. *)
