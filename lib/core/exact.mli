(** Exact minimum cut for small λ — the paper's main algorithm.

    Pack trees à la Thorup (each new tree is the MST w.r.t. the loads of
    the previous ones), and for each packed tree run the Section-2
    1-respecting-cut algorithm ({!One_respect}); return the best subtree
    cut found across all trees.  By Thorup's theorem, once enough trees
    are packed ([Θ(λ⁷ log³ n)] in theory, a handful in practice — see
    experiment F3) some tree 1-respects a minimum cut, making the answer
    exactly λ.

    Round cost: [trees] Kutten–Peleg MSTs (charged at the KP bound) plus
    [trees] runs of the Õ(√n + D) Theorem-2.1 pipeline — the paper's
    [Õ((√n + D)·poly(λ))].

    The result is always a genuine cut of the graph (value = C(side)),
    hence always ≥ λ; tests assert equality against Stoer–Wagner on
    suites where the packing budget is adequate. *)

type result = {
  value : int;
  side : Mincut_util.Bitset.t;    (** the best subtree side found *)
  best_tree : int;                 (** index of the winning packed tree *)
  trees_used : int;
  cost : Mincut_congest.Cost.t;
  stats : One_respect.stats;       (** stats of the winning tree's run *)
}

val run :
  ?params:Params.t ->
  ?pool:Mincut_parallel.Pool.t ->
  ?lambda_upper:int ->
  ?trees:int ->
  Mincut_graph.Graph.t ->
  result
(** [trees] defaults to
    [Tree_packing.recommended_trees ~lambda_hint:(min weighted degree)];
    [lambda_upper] (e.g. {!Sample_estimate.result}'s [upper]) tightens
    the hint to [min (min weighted degree) lambda_upper], pruning the
    packing budget before any tree is built.  An explicit [trees]
    overrides both.  Requires n ≥ 2; returns the 0-cut with a component
    side when the graph is disconnected.

    Each distinct packed tree ({!Mincut_treepack.Tree_packing.distinct})
    runs the 1-respecting DP once, and its result is reused at every
    repeat; every packed tree is still charged its own Theorem 2.1
    group, so the outcome equals running every tree.  [pool] (default
    sequential) fans the distinct trees' DP instances over domains;
    results are merged in tree index order, so the outcome — value,
    side, winning tree, cost breakdown — is bit-identical for any
    worker count. *)

val min_weighted_degree : Mincut_graph.Graph.t -> int
(** The classic [λ ≤ min_v δ(v)] upper bound, used as the packing-budget
    hint. *)
