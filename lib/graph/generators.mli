(** Graph families used by tests, examples, and the benchmark harness.

    Each experiment of EXPERIMENTS.md names one of these families:
    - [gnp] (supercritical) for the n-sweep of Theorem 2.1 (T2, F1);
    - [path_of_cliques] to scale the diameter [D] independently (T3);
    - [planted_cut] to control the min-cut value [λ] exactly (T4, F3, F4);
    - the deterministic families (ring, grid, torus, hypercube, complete,
      barbell, wheel, caterpillar) for unit tests with known answers.

    All randomized generators take an explicit RNG and optional weight
    bounds; weights default to 1 (unweighted). *)

type weights = { wmin : int; wmax : int }

val path : ?weights:weights -> ?rng:Mincut_util.Rng.t -> int -> Graph.t
(** Path on [n] nodes; λ = wmin for unit weights. *)

val ring : ?weights:weights -> ?rng:Mincut_util.Rng.t -> int -> Graph.t
(** Cycle on [n >= 3] nodes; λ = 2 for unit weights. *)

val complete : ?weights:weights -> ?rng:Mincut_util.Rng.t -> int -> Graph.t
(** K_n; λ = n-1 for unit weights. *)

val grid : int -> int -> Graph.t
(** [rows × cols] grid, unit weights; λ = min rows cols >= 2 ? 2 : 1. *)

val torus : int -> int -> Graph.t
(** Wrap-around grid, unit weights; λ = 4.  Raises [Invalid_argument]
    unless both dims are >= 3. *)

val hypercube : int -> Graph.t
(** d-dimensional hypercube, unit weights; λ = d. *)

val wheel : int -> Graph.t
(** Hub + cycle of [n-1 >= 3] rim nodes, unit weights; λ = 3. *)

val caterpillar : int -> int -> Graph.t
(** Spine of the given length with [legs] leaves per spine node
    (unit weights; λ = 1).  A stress test for skewed trees. *)

val barbell : int -> Graph.t
(** Two K_k cliques joined by one edge; λ = 1.  The classic worst case
    for naive local algorithms. *)

val gnp : rng:Mincut_util.Rng.t -> ?weights:weights -> int -> float -> Graph.t
(** Erdős–Rényi G(n, p) via geometric skipping (O(n + m) expected). *)

val gnp_connected : rng:Mincut_util.Rng.t -> ?weights:weights -> int -> float -> Graph.t
(** [gnp] resampled until connected (raises after 100 failures — use
    supercritical [p]). *)

val random_tree : rng:Mincut_util.Rng.t -> ?weights:weights -> int -> Graph.t
(** Uniform random recursive tree (node i attaches to a uniform earlier
    node). *)

val random_regular : rng:Mincut_util.Rng.t -> ?weights:weights -> int -> int -> Graph.t
(** Configuration-model d-regular simple graph (resampled on collisions);
    requires [n*d] even and [d < n].  Expander-like for d >= 3. *)

val planted_cut :
  rng:Mincut_util.Rng.t ->
  ?weights:weights ->
  n:int ->
  cut_edges:int ->
  p_in:float ->
  unit ->
  Graph.t
(** Two G(n/2, p_in) halves (each made connected) joined by exactly
    [cut_edges] unit-weight cross edges.  For sufficiently dense halves
    the min cut is exactly [cut_edges] — the λ-controlled family. *)

val path_of_cliques : clique:int -> length:int -> Graph.t
(** [length] cliques K_clique arranged in a path, adjacent cliques joined
    by 2 edges (so λ = 2 but internal cuts are large); diameter grows
    linearly with [length], n = clique·length.  The D-controlled
    family. *)

val spider : legs:int -> leg_length:int -> Graph.t
(** A hub with [legs] paths of [leg_length] nodes each (unit weights;
    λ = 1, n = legs·leg_length + 1).  Deep {e and} branching: the
    canonical topology for fragment {e merging nodes} (paper, Step 4 /
    Figure 1).  *)

val dumbbell : int -> int -> Graph.t
(** Two K_k cliques joined by a path of the given number of bridge nodes
    (λ = 1, diameter ≈ path length). *)

val family_names : string list
(** The families [by_name] understands. *)

val by_name :
  rng:Mincut_util.Rng.t ->
  ?weights:weights ->
  name:string ->
  size:int ->
  unit ->
  (Graph.t, string) result
(** One-string factory shared by the CLI, the benchmarks, and tests:
    ["ring"], ["grid"] (size = side), ["hypercube"] (size = dimension),
    ["gnp"] (supercritical p), ["planted"] (3 cross edges), etc.
    [Error] carries {!check_size}'s message, before anything is
    allocated. *)

val max_edges : int
(** The most edges (2{^24}) a family built by {!by_name} may have. *)

val check_size : name:string -> size:int -> (int * int, string) result
(** [Ok (n, m)]: the node and edge counts of family [name] at [size],
    in closed form and without building anything (torus size² nodes
    and 2·size² edges, hypercube 2{^size} nodes, complete
    size·(size − 1)/2 edges, ...).  Products and sums that would pass
    [max_int] read as [max_int].  For ["gnp"] and ["planted"] the edge
    count is the expected one.  [Error] names an unknown family, a size
    below the family's smallest (3 for a ring or torus, 1 for most), or
    counts above {!Graph.max_nodes} nodes or {!max_edges} edges. *)

(** {2 Delta streams} *)

val delta_stream :
  rng:Mincut_util.Rng.t ->
  ?wmax:int ->
  base:Graph.t ->
  int ->
  Delta.op list
(** [delta_stream ~rng ~base ops] draws a reproducible update stream of
    (at most) [ops] deltas over an evolving copy of [base]: every op is
    valid at its position when replayed in order from [base], and the
    graph stays connected throughout (removals avoid bridges, merges
    contract channels, splits keep a bridge of weight [1..wmax]).
    Op kinds are drawn add / remove / reweight / merge / split at
    35 / 8 / 49 / 4 / 4 percent: insert-heavy churn with a steady
    trickle of certificate-invalidating structural updates — the regime
    the incremental service is built for.
    Weights are drawn in [1..wmax] (default 4).  Equal seeds yield equal
    streams — bench, tests and qcheck share this one source.  A drawn
    kind that is impossible at its position (e.g. a removal when every
    channel is a bridge) degrades to an add, so a step can very rarely
    produce nothing; hence "at most". *)
