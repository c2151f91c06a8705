(** Real message-level CONGEST building blocks.

    Each primitive runs an actual per-node program on {!Network} and
    returns both its result and the measured round cost.  They are the
    communication substrate the paper's algorithm stands on:

    - {!bfs_tree} — the global BFS tree (all global aggregation and
      broadcast in the paper runs over it; its depth is ≤ D);
    - {!broadcast_items} — pipelined broadcast of [k] words from the
      root to every node ([depth + k] rounds);
    - {!upcast_distinct} — pipelined collection of [k] distinct words at
      the root ([≤ depth + k] rounds);
    - {!convergecast_sum} — one aggregate up the tree ([depth + 1]);
    - {!flood_max} — leader election / max-id agreement by flooding.

    All of them work on an arbitrary rooted {!Mincut_graph.Tree.t} whose edges exist
    in the communication graph — in particular on each Kutten–Peleg
    fragment in parallel (fragments are vertex-disjoint subtrees, so a
    single engine run executes all of them simultaneously, which is
    exactly how the paper argues its "within each fragment" steps). *)

module Tree = Mincut_graph.Tree
module Graph = Mincut_graph.Graph

val bfs_tree : ?cfg:Config.t -> Graph.t -> root:int -> Tree.t * Cost.t
(** Synchronous flooding; requires a connected graph. *)

val convergecast_sum :
  ?cfg:Config.t -> Graph.t -> tree:Tree.t -> values:int array -> int * Cost.t
(** Sum of [values] at the root of [tree]. *)

val broadcast_items :
  ?cfg:Config.t -> Graph.t -> tree:Tree.t -> items:int array -> int array array * Cost.t
(** Every node ends up with all [items] (returned per node, in order).
    Pipelined: one item per tree edge per round. *)

val upcast_distinct :
  ?cfg:Config.t -> Graph.t -> tree:Tree.t -> initial:int list array -> int list * Cost.t
(** Each node starts holding a set of words; the union (deduplicated)
    reaches the root, which returns it sorted.  Pipelined
    send-smallest-unsent. *)

val flood_max : ?cfg:Config.t -> Graph.t -> values:int array -> int array * Cost.t
(** Every node learns [max values] (e.g. leader election on ids);
    runs for (hop-eccentricity) rounds via echo-free flooding with a
    known-diameter bound derived from the BFS tree. *)

val flood_echo : ?cfg:Config.t -> Graph.t -> root:int -> Tree.t * Cost.t
(** BFS flooding {e with echo}: after joining, every node acknowledges
    up the BFS tree once its whole subtree has, so at termination the
    {e root knows} the flood is complete (2·ecc + O(1) rounds).  This is
    the textbook termination-detection primitive that lets a phase-based
    algorithm (like the paper's Steps 1–5) start each phase globally:
    each step's completion is echoed to the root, which floods the
    start-of-next-phase signal.  Its cost is the +O(D) per phase that
    the paper's constants absorb (see DESIGN.md §2). *)

(** Audited variants: identical behaviour, but additionally return the
    engine's {!Network.audit} (message totals, max payload) — the data
    of experiment T5. *)

val bfs_tree_audited :
  ?cfg:Config.t -> Graph.t -> root:int -> Tree.t * Cost.t * Network.audit

type bfs_state = { dist : int; parent : int; done_ : bool }

val bfs_program : Graph.t -> root:int -> (bfs_state, int) Network.program
(** The raw per-node flooding program behind {!bfs_tree} (payloads are
    one word each).  Exposed so harnesses can drive the {e same}
    workload through alternative engines — e.g. the benchmark compares
    {!Network.run} against {!Network_reference.run} on it. *)

(** The per-node programs behind the other primitives, exposed for the
    same reason as {!bfs_program}: the tests drive each one through
    {!Network_reference.run} as well and demand identical states and
    audits.  {!upcast_distinct} and {!flood_max} run theirs under
    {!Network.run_bounded}. *)

type cc_state

val convergecast_program : tree:Tree.t -> values:int array -> (cc_state, int) Network.program

type bc_state

val broadcast_program : tree:Tree.t -> items:int array -> (bc_state, int) Network.program

type up_state

val upcast_program : tree:Tree.t -> initial:int list array -> (up_state, int) Network.program

type fm_state

val flood_max_program : Graph.t -> values:int array -> (fm_state, int) Network.program

type fe_state

val echo_program : tree:Tree.t -> (fe_state, int) Network.program
(** The acknowledgement wave of {!flood_echo}, over a finished BFS
    tree. *)

val convergecast_sum_audited :
  ?cfg:Config.t -> Graph.t -> tree:Tree.t -> values:int array -> int * Cost.t * Network.audit

val broadcast_items_audited :
  ?cfg:Config.t ->
  Graph.t ->
  tree:Tree.t ->
  items:int array ->
  int array array * Cost.t * Network.audit

val upcast_distinct_audited :
  ?cfg:Config.t ->
  Graph.t ->
  tree:Tree.t ->
  initial:int list array ->
  int list * Cost.t * Network.audit
