(** Synchronous CONGEST execution engine.

    Runs a per-node program in synchronous rounds over a {!Mincut_graph.Graph.t}
    topology: messages sent in round [r] are delivered at the start of
    round [r+1], and the engine enforces the model's discipline —
    messages may only be addressed to neighbors, at most one message per
    (sender, receiver) pair per round, and each payload must fit the
    configured word budget.  Violations raise {!Model_violation}
    immediately: an algorithm that breaks the model is a bug, not a
    statistic.  Each violation carries full provenance — the kind, the
    offending round, the sender/receiver when applicable, and the
    measured words against the violated budget — so the conformance
    auditor ([mincut_lint]) and the tests can assert {e which} rule
    broke and where.

    The audit of a run (message totals, maximum payload, rounds) feeds
    experiment T5.

    Cost: a call pays O(n) on entry; after that, a round costs
    O(visited nodes + n/32) plus O(1) per message (O(log degree) when
    the sender's channel is not one it or its receiver used last).  A
    round visits only the nodes that have mail, and those that stepped
    in the round before without halting or falling asleep (see
    [program.step]); round 0 visits every node, and {!Config.sanitize}
    every node that has not halted. *)

type violation_kind =
  | Oversized_message  (** payload exceeded [words_per_message] *)
  | Non_neighbor_send  (** destination is not adjacent to the sender *)
  | Duplicate_send     (** second message on one (sender, receiver) pair
                           in one round *)
  | Edge_overload      (** strict mode: aggregate words on one directed
                           edge in one round exceeded the cap *)
  | Order_dependence   (** sanitize mode: a step's outcome changed under
                           a permuted inbox delivery order *)
  | Round_dependence   (** sanitize mode: a sleeping node's empty-inbox
                           step sent or changed its marshalled state,
                           so it read the round as a timer (see
                           [program.step]) *)
  | Watchdog           (** the configured round limit was reached *)

type violation = {
  kind : violation_kind;
  round : int;            (** round in which the rule broke *)
  sender : int option;    (** offending sender ([None] for watchdog) *)
  receiver : int option;  (** intended receiver ([None] for watchdog) *)
  words : int option;     (** measured words, for budget violations *)
  budget : int option;    (** the violated limit: word budget, edge cap,
                              or round limit *)
}

exception Model_violation of violation

val violation_message : violation -> string
(** Human-readable one-line rendering (also installed as the
    [Printexc] printer for {!Model_violation}). *)

type ('state, 'msg) program = {
  initial : int -> 'state;
      (** [initial v] — local state of node [v] before round 0.  A node
          initially knows only its own id and its incident edges (the
          engine cannot enforce that discipline; programs are written to
          respect it and reviewed against the paper's steps). *)
  step :
    node:int -> round:int -> inbox:(int * 'msg) list -> 'state -> 'state * (int * 'msg) list;
      (** One synchronous round: consume the messages delivered this
          round (as [(sender, payload)], sorted by sender) and return the
          new state plus outgoing [(neighbor, payload)] messages.

          Contract: after round 0, an empty-inbox step depends only on
          node and state.  A program may test [round = 0] to start, but
          must not use the round number as a timer.  The engine relies
          on it: after round 0, a node whose empty-inbox step returns
          its state physically unchanged and sends nothing sleeps, and
          is not stepped again until mail arrives (wake-on-mail).
          "Unchanged" means physically equal: an idle step that
          returns a fresh but equal state (say [{ st with x }]) keeps
          the node awake, stepped every round until it halts.
          {!Config.sanitize} steps sleeping nodes anyway and raises
          {!Model_violation} with kind {!Round_dependence} when such a
          step sends or changes the marshalled state. *)
  halted : 'state -> bool;
      (** Halted nodes no longer step; messages sent to them are
          dropped.  The engine stops when every node has halted.  It
          must be a pure function of the state: the engine does not
          call it again when a step returns its state physically
          unchanged. *)
}

type audit = {
  rounds : int;             (** rounds executed *)
  total_messages : int;
  total_words : int;
  max_words : int;          (** largest single payload observed *)
  max_edge_load : int;      (** max messages carried by a single
                                directed edge over the whole run — the
                                per-channel congestion the pipelined
                                primitives are designed to bound (within
                                one round it is always <= 1, since a
                                second send on a channel raises
                                {!Duplicate_send}) *)
  max_edge_words : int;     (** max aggregate words crossing one directed
                                edge in one round — the quantity the
                                strict mode ({!Config.strict}) caps *)
  messages_per_round : int array;
      (** congestion profile: how many messages were in flight in each
          executed round (length = rounds) *)
}

type ('state, 'msg) probe =
  node:int ->
  round:int ->
  inbox:(int * 'msg) list ->
  'state ->
  (int * 'msg) list ->
  unit
(** Instrumentation callback: invoked once per executed step (sleeping
    nodes are not stepped, except under [cfg.sanitize]) with the
    delivered inbox, the {e post-step} state, and the outbox, before
    any model-discipline checks run on the outbox.  The sanitizer's
    footprint/word-growth tracker hooks in here; the callback must not
    mutate the network (it only observes). *)

val run :
  ?cfg:Config.t ->
  ?probe:('state, 'msg) probe ->
  words:('msg -> int) ->
  result:(int -> 'state -> 'r) ->
  Mincut_graph.Graph.t ->
  ('state, 'msg) program ->
  'r array * audit
(** Run until all nodes halt, and return [result v s] for every node [v]
    and its final state [s], in node order.  [result] is where a caller
    reduces a state to what it needs (or checks it): the engine drops
    every state from its own arrays before it returns, so a state that
    [result] does not keep is garbage at once.  Once n > 256 the
    engine's per-node arrays live in the major heap, and a dead one
    still holding young states would have the next minor collection
    promote them all.  Returning the state itself keeps it.

    Raises [Model_violation] if the watchdog round limit is reached.
    With [cfg.sanitize] set, every step whose inbox holds ≥ 2 messages
    is additionally re-executed under a reversed and a
    deterministically shuffled inbox; any divergence in
    marshalled state, outbox multiset, or halted flag raises
    [Model_violation] with kind {!Order_dependence} carrying the node
    and round; and every sleeping node is stepped and checked against
    the contract on [program.step] ({!Round_dependence}). *)

val run_bounded :
  ?cfg:Config.t ->
  ?probe:('state, 'msg) probe ->
  words:('msg -> int) ->
  result:(int -> 'state -> 'r) ->
  rounds:int ->
  Mincut_graph.Graph.t ->
  ('state, 'msg) program ->
  'r array * audit
(** Run exactly [rounds] rounds (halted nodes stop stepping early); the
    audit's [rounds] field reports the last round in which any message
    was in flight (+1), i.e. the effective completion time.  [result] is
    applied as in {!run}, and undelivered mail is dropped. *)
