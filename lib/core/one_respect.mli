(** The paper's main result (Theorem 2.1): an Õ(√n + D)-round CONGEST
    algorithm computing, for a rooted spanning tree [T] of the network,
    every subtree cut [C(v↓)] — and hence the minimum cut that
    1-respects [T].

    The five steps of Section 2 are implemented at the distributed
    knowledge level: the module computes exactly the per-node knowledge
    the paper's protocol establishes (fragment ids, the fragment tree
    [T_F], the sets [F(v)] and ancestor lists [A(v)], merging nodes and
    [T'_F], per-edge LCAs via the three-case analysis, and the [δ↓]/[ρ↓]
    aggregates), while the round cost of every step is assembled from
    the *measured* schedule parameters of this execution — real fragment
    heights, real item counts for each pipelined broadcast/upcast, real
    per-edge exchange lengths for the LCA step (see {!Mincut_congest.Pipeline}).
    Steps with message-level implementations (the global BFS tree and
    the intra-fragment aggregations) actually run on the CONGEST engine
    when [params.run_real_primitives] is set, and the engine-measured
    rounds are charged for them.

    Step 5 reads each edge's LCA from the O(1) oracle {!Mincut_graph.Tree.Lca}
    and then the paper's case (1–3) and exchange length from the fragment
    structure, in O(1) per edge.  The test suite keeps the paper's
    climbing three-case computation as an oracle and checks that it
    finds the same LCA, case and exchange length edge by edge. *)

type stats = {
  n : int;
  bfs_height : int;           (** height of the global BFS tree (≤ D) *)
  fragment_count : int;       (** k = O(√n) *)
  max_fragment_height : int;  (** O(√n) *)
  merging_count : int;        (** |merging nodes| = O(√n) *)
  tf_prime_size : int;        (** |T'_F| = O(√n) *)
  lca_case1 : int;
  lca_case2 : int;
  lca_case3 : int;            (** how many edges hit each LCA case *)
  max_lca_exchange : int;     (** worst per-edge exchange length (Step 5) *)
  max_child_frag_load : int;  (** Step 2a: max per-edge load of the
                                  child-fragment-list upcast *)
  max_ancestor_items : int;   (** Step 2b: max |A(v)| — ancestor-list
                                  downcast per-edge load *)
  max_f_items : int;          (** Step 2c: max |F(root)| items downcast *)
  case2_lca_count : int;      (** Step 5: distinct case-2 LCA nodes (the
                                  type-(i) message count) *)
}
(** Every scheduled/charged span formula in {!run}'s cost tree is a
    closed form over these measured quantities (plus [Params]) — the
    certifier ([Mincut_analysis.Costcheck]) recomputes each one. *)

type result = {
  cuts : int array;       (** C(v↓) for every node — "at the end of our
                              algorithm every node v knows C(v↓)" *)
  best_value : int;       (** c* = min_{v ≠ root} C(v↓) *)
  best_node : int;
  cost : Mincut_congest.Cost.t;  (** per-step round breakdown *)
  stats : stats;
}

val backbone :
  ?params:Params.t ->
  Mincut_graph.Graph.t ->
  root:int ->
  Mincut_graph.Tree.t * Mincut_congest.Cost.t
(** The global BFS tree from [root] that Step 1 builds as the backbone
    for network-wide aggregation, with its cost: run on the engine
    ([Executed], with its audit) when [params.run_real_primitives] is
    set, else [Scheduled] at height + 1.  It depends only on the graph
    and the root, so a caller running {!run} on many trees of one graph
    computes it once.  Requires a connected graph. *)

val run :
  ?params:Params.t ->
  ?target:int ->
  ?backbone:Mincut_graph.Tree.t * Mincut_congest.Cost.t ->
  Mincut_graph.Graph.t ->
  Mincut_graph.Tree.t ->
  result
(** Requires a connected graph with n ≥ 2 and a spanning tree of it.
    [target] overrides the fragment height threshold (default ⌈√n⌉) —
    exposed for the A1 ablation, which shows why √n is the right
    balance point between fragment-local and global-broadcast work.
    [backbone], when given, must be [backbone ~params g ~root] for the
    same [params], [g] and the tree's root; the run then reuses it
    instead of rebuilding it, and still charges its cost in Step 1, so
    the result is the same either way.  Raises [Invalid_argument] if it
    is rooted elsewhere, spans a different number of nodes than [g], or
    has the other mode's cost provenance. *)

type csr = { off : int array; ids : int array }
(** Per-node id lists laid out flat: node [v]'s ids are
    [ids.(off.(v)) .. ids.(off.(v + 1) - 1)].  The arrays come from a
    {!Mincut_util.Scratch} frame, so they may be longer than that and
    last only as long as the frame. *)

val f_sets :
  Mincut_util.Scratch.frame -> Mincut_graph.Tree.t -> Mincut_mst.Fragments.t -> csr
(** Exposed for testing: F(v), the fragments whose root is a proper
    descendant of [v], each node's ids in descending order. *)

val child_fragment_items :
  Mincut_util.Scratch.frame -> Mincut_graph.Tree.t -> Mincut_mst.Fragments.t -> csr
(** Exposed for testing: Step 2a's seed, the fragments whose root is a
    child of [v], each node's ids in descending order. *)

val frag_links : Mincut_graph.Tree.t -> Mincut_mst.Fragments.t -> Mincut_congest.Primitives.forest
(** The tree restricted to each fragment: a forest rooted at the
    fragment roots, shared by the within-fragment engine programs of one
    run. *)

val ancestor_downcast_program :
  Mincut_graph.Tree.t ->
  Mincut_congest.Primitives.forest ->
  Mincut_mst.Fragments.t ->
  (int, int) Mincut_congest.Network.program
(** Step 2b's engine program on a fragment forest of the tree: every
    node sends its id to its children in round 0 and forwards each id in
    the round it arrives, so it hears its in-fragment ancestors deepest
    first.  A node's state is the in-fragment depth of the last id heard
    (its own depth before the first).  The step asserts that each id is
    a same-fragment ancestor exactly one level above the last, so a node
    whose state ends at 0 heard all of them.  Never halts: run it for a
    bounded number of rounds. *)

val frag_ancestor_downcast :
  cfg:Mincut_congest.Config.t ->
  Mincut_graph.Graph.t ->
  Mincut_graph.Tree.t ->
  Mincut_congest.Primitives.forest ->
  Mincut_mst.Fragments.t ->
  Mincut_congest.Network.audit
(** Step 2b on the engine, exposed for testing: every node learns the
    ids of its within-fragment ancestors.  Returns the engine audit.
    Raises [Assert_failure] if an arriving id is not the next ancestor
    up, or if a node ends the run short of its fragment root. *)

val lca_by_fragments :
  ?target:int -> Mincut_graph.Graph.t -> Mincut_graph.Tree.t -> (int * int * int) array
(** Exposed for testing: per graph edge, [(lca, case, items)] where
    [case] ∈ {1,2,3} is the Step-5 case that resolved it and [items] the
    exchange length it needed. *)
