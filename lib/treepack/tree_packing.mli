(** Thorup's recursive tree packing [Tho07, Theorem 9].

    Generate trees [T₁, T₂, …] where [Tᵢ] is the minimum spanning tree
    with respect to the {e relative loads} induced by [T₁ … Tᵢ₋₁]: the
    load of edge [e] after [i-1] trees is [uses(e) / w(e)] (weight acts
    as capacity).  Thorup proves that after [Θ(λ⁷ log³ n)] trees at
    least one tree contains {e exactly one} edge of some minimum cut
    ("1-respects" it), which is what reduces min-cut to the paper's
    Section-2 problem.

    The load comparison is done in exact integer arithmetic
    ([u₁·w₂ vs u₂·w₁]) with deterministic (load, weight, id)
    tie-breaking, so a packing is a pure function of the graph — tests
    rely on this.

    {b Cost.}  One edge order is kept sorted across trees.  Each tree is
    a Kruskal scan of that order that stops after [n−1] unions; then
    only those [n−1] edges gain load, so they alone are re-sorted and
    merged back.  A tree costs [O(m + n log n)] after one initial
    [O(m log m)] sort, against [O(m log m)] for a fresh sort per tree.
    Scratch is [O(m + n)], allocated once per call.  Because
    (relative load, weight, id) is a strict total order, the maintained
    order is the unique sorted order a fresh sort would produce, so the
    trees (each tree's ids in Kruskal order) and the loads are exactly
    those of re-sorting all [m] edges per tree.

    The theoretical tree count is astronomically conservative; in
    practice a handful of trees suffices (measured by experiment F3).
    [recommended_trees] provides the practical default, [theory_trees]
    the literal bound for reference. *)

type t = {
  trees : int list array;  (** tree index → edge ids of that spanning tree *)
  loads : int array;       (** edge id → number of packed trees using it *)
}

val greedy : Mincut_graph.Graph.t -> trees:int -> t
(** Pack the given number of trees.  Raises [Invalid_argument] if the
    graph is disconnected, [trees < 1], or some edge weight exceeds
    [max_int / trees] (past that, [u·w] can overflow and the order
    would stop being transitive). *)

val distinct : t -> int array * int list array
(** [distinct t] is [(slot, reps)]: [reps] holds each distinct tree once,
    as the edge ids of its first occurrence, in first-occurrence order,
    and tree [i] has the same edge set as [reps.(slot.(i))].  A consumer
    that depends only on a tree's edge-id set (such as
    {!Mincut_graph.Tree.of_edge_ids}) can run once per distinct tree and
    reuse the result at every repeat: greedy packings repeat trees
    heavily on some families (paths of cliques).  Trees are keyed by
    [key] and filed by {!Mincut_util.Bitset.hash}, which reads every
    word. *)

val key : t -> int list -> Mincut_util.Bitset.t
(** The key [distinct] files a tree of [t] under: the bitmap of its edge
    ids over the packing's [m] edges, built in [O(n + m/62)] with no
    sort.  Equal keys are exactly equal id sets. *)

val recommended_trees : n:int -> lambda_hint:int -> int
(** Practical default: [max 8 (min 96 (2·λ̂·⌈log₂ n⌉))]. *)

val theory_trees : n:int -> lambda:int -> float
(** The literal [λ⁷·log³ n] figure (as a float — it overflows quickly),
    reported in EXPERIMENTS.md next to what was actually needed. *)

val crossings : Mincut_graph.Graph.t -> int list -> in_cut:(int -> bool) -> int
(** Number of edges of the given tree crossing the cut. *)

val first_one_respecting :
  Mincut_graph.Graph.t -> t -> in_cut:(int -> bool) -> int option
(** Index of the first packed tree that 1-respects the cut, if any —
    the quantity Thorup's theorem bounds (experiment F3). *)

val load_invariant : Mincut_graph.Graph.t -> t -> bool
(** Σ loads = trees·(n−1) and every tree spans — packing sanity. *)

val distributed_cost :
  n:int -> diameter:int -> trees:int -> per_tree_rounds:int -> Mincut_congest.Cost.t
(** Round cost of computing the packing distributedly: [trees]
    sequential MST computations, each charged [per_tree_rounds] (the
    Kutten–Peleg bound from {!Mincut_core.Params}); load bookkeeping is
    local.  Returned as a single [Charged] span — the bound is cited,
    not executed. *)

(** {2 Edge-disjoint packings (Nash–Williams / Tutte)}

    Thorup's packing reuses edges (load-based); the classical
    edge-disjoint packing is the other regime: by Nash–Williams/Tutte a
    graph with min cut λ packs at least ⌈λ/2⌉ edge-disjoint spanning
    trees (treating weight as multiplicity), and trivially at most λ.
    The greedy packing below gives a certified lower bound on tree
    packing number used by tests and the workload tables. *)

val disjoint_greedy : Mincut_graph.Graph.t -> int list list
(** Greedily extract edge-disjoint spanning trees (weight = multiplicity:
    an edge can appear in up to [w] trees).  Returns the edge-id lists of
    the extracted trees; stops when the residual graph is disconnected. *)

val disjoint_count : Mincut_graph.Graph.t -> int
(** Number of trees [disjoint_greedy] extracts; always ≤ λ. *)
