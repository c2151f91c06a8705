(** Real message-level CONGEST building blocks.

    Each primitive runs an actual per-node program on {!Network} and
    returns both its result and the measured round cost.  They are the
    communication substrate the paper's algorithm stands on, and the one
    place in the repo where a tree wave is written.

    The tree waves run over a {!forest}: a parent map with [-1] at every
    root, plus each node's children.  A whole rooted tree is a forest
    with one root ({!forest_of_tree}); a Kutten–Peleg fragment partition
    is a forest with one root per fragment.  Fragments are
    vertex-disjoint subtrees, so a single engine run executes the wave
    on all of them simultaneously, which is exactly how the paper argues
    its "within each fragment" steps.  The forest programs:

    - {!convergecast} — one aggregate up every tree ([height + 1]
      rounds): Step 3's within-fragment δ sums, Borůvka's candidate
      convergecast and the echo of {!flood_echo};
    - {!upcast} — pipelined collection of distinct ids at every root
      ([≤ height + k] rounds): Step 2a's child-fragment lists;
    - {!broadcast} — every root streams its own [k] items down its tree
      ([height + k] rounds): Borůvka's decision broadcast;
    - {!exchange} — one round to each distinct neighbour (not a tree
      wave, but shared the same way): Borůvka's fragment-id exchange and
      the cut certificate's membership bits.

    On top of them, the whole-graph primitives:

    - {!bfs_tree} — the global BFS tree (all global aggregation and
      broadcast in the paper runs over it; its depth is ≤ D);
    - {!convergecast_sum}, {!broadcast_items}, {!upcast_distinct} — the
      three waves on one rooted tree;
    - {!flood_max} — leader election / max-id agreement by flooding;
    - {!flood_echo} — BFS flooding with termination detection.

    Every executed leaf carries its engine audit; read it back with
    {!Cost.leaf_audit}. *)

module Tree = Mincut_graph.Tree
module Graph = Mincut_graph.Graph

type forest = {
  parent : int array;            (** [-1] at every root *)
  children : int array array;    (** the inverse of [parent] *)
}
(** Rooted trees over the graph's nodes, whose edges exist in the
    communication graph. *)

val forest_of_tree : Tree.t -> forest
(** The tree's own arrays, shared, not copied. *)

val forest_of_parents : int array -> forest
(** Children derived from the parent map, in ascending node order; the
    map is shared, not copied. *)

(** {1 Forest programs} *)

val convergecast :
  ?cfg:Config.t ->
  words:('a -> int) ->
  combine:('a -> 'a -> 'a) ->
  Graph.t ->
  forest ->
  'a array ->
  'a array * Network.audit
(** [convergecast ~words ~combine g f values]: each node ends holding
    [values] combined over its subtree in [f] (so each root holds its
    tree's aggregate).  A node sends its partial aggregate to its parent
    once all of its children have reported, then halts.  [combine] must
    be associative and commutative: the inbox order is not part of the
    model. *)

val upcast :
  ?cfg:Config.t ->
  rounds:int ->
  Graph.t ->
  forest ->
  initial:int list array ->
  Mincut_util.Intset.t array * Network.audit
(** Each node starts holding a set of ids; every node passes up one id
    it has not yet sent per round, smallest first, and drops ids it
    already knows, so each id crosses each edge at most once.  Runs
    exactly [rounds] rounds ({!Network.run_bounded}, which also sets the
    length of the audit's [messages_per_round]); returns what every node
    knows at the end.  One-word payloads. *)

val broadcast :
  ?cfg:Config.t ->
  words:('a -> int) ->
  k:int ->
  item:(int -> int -> 'a) ->
  Graph.t ->
  forest ->
  'a list array * Network.audit
(** Every root [r] sends [item r i] to its children in round [i], for
    [i < k]; every other node forwards each item in the round it
    arrives.  Returns each node's [k] items in order. *)

val exchange :
  ?cfg:Config.t ->
  words:('a -> int) ->
  Graph.t ->
  'a array ->
  (int * 'a) list array * Network.audit
(** [exchange ~words g values]: in round 0 every node sends its value
    once to each distinct neighbour; each node returns what it heard as
    [(sender, value)], sorted by sender.  Two rounds. *)

(** {1 Whole-graph primitives} *)

val bfs_tree : ?cfg:Config.t -> Graph.t -> root:int -> Tree.t * Cost.t
(** Synchronous flooding.  Raises [Invalid_argument] on a disconnected
    graph, before any message is sent. *)

val convergecast_sum :
  ?cfg:Config.t -> Graph.t -> tree:Tree.t -> values:int array -> int * Cost.t
(** Sum of [values] at the root of [tree] (two-word payloads). *)

val broadcast_items :
  ?cfg:Config.t -> Graph.t -> tree:Tree.t -> items:int array -> int array array * Cost.t
(** Every node ends up with all [items] (returned per node, in order).
    Pipelined: one item per tree edge per round. *)

val upcast_distinct :
  ?cfg:Config.t -> Graph.t -> tree:Tree.t -> initial:int list array -> int list * Cost.t
(** Each node starts holding a set of words; the union (deduplicated)
    reaches the root, which returns it sorted.  Runs {!upcast} for
    [height + k + 2] rounds, [k] the number of distinct words. *)

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

(** {1 Raw programs}

    The per-node programs behind the primitives above, exposed so
    harnesses can drive the {e same} workload through alternative
    engines: the tests run each one through {!Network_reference.run} as
    well and demand identical states and audits, and the benchmark
    compares {!Network.run} against {!Network_reference.run} on
    {!bfs_program}.  {!upcast_program} and {!flood_max_program} run
    under {!Network.run_bounded}. *)

type bfs_state = { dist : int; parent : int; done_ : bool }

val bfs_program : Graph.t -> root:int -> (bfs_state, int) Network.program
(** The flooding program behind {!bfs_tree} (payloads are one word
    each). *)

type 'a cc_state

val convergecast_program :
  forest -> combine:('a -> 'a -> 'a) -> values:'a array -> ('a cc_state, 'a) Network.program

type 'a bc_state

val broadcast_program :
  forest -> k:int -> item:(int -> int -> 'a) -> ('a bc_state, 'a) Network.program

type up_state

val upcast_program : forest -> initial:int list array -> (up_state, int) Network.program

val exchange_program :
  Graph.t -> values:'a array -> ((int * 'a) list option, 'a) Network.program

type fm_state

val flood_max_program : Graph.t -> values:int array -> (fm_state, int) Network.program
