(** The service's line protocol: one request per line, one (or, for
    [FLUSH] and [GRAPH], a few) response lines per request.

    Verbs (case-insensitive; arguments are [key=value] tokens):

    {v
    GRAPH <name> <n> <m>     register a graph under <name>; the next m
                             lines are "u v w" edges (0-based endpoints)
    SOLVE <args>             solve synchronously through the cache
    SUBMIT <args>            enqueue; answered by the next FLUSH
    ESTIMATE <args>          sampling-ladder λ bracket, no exact solve
    SESSION <name> <source>  open a named mutable versioned session
    DELTA <name> <op>        apply one delta; answers λ incrementally
    FLUSH                    drain the queue as coalesced batches on the
                             worker pool; SHED line per expired ticket,
                             RESULT line per answered ticket + DONE
    STATS                    one-line JSON metrics snapshot
    PING / HELP / QUIT       liveness, verb list, end of session
    SHUTDOWN                 end of session and stop accepting clients
    v}

    [SOLVE]/[SUBMIT] arguments: a graph source — [graph=<name>] for a
    registered graph, [family=<fam>] with optional [size=] [gseed=]
    [wmax=] for a generator from the workload zoo, or [session=<name>]
    for the live version of an open session — plus [algo=]
    (exact|exact2|approx|gk|su), [epsilon=], [seed=], [trees=], and for
    SUBMIT [priority=] and [deadline-ms=].  [SOLVE session=…] answers
    through the incremental path (anchored summaries and version-chain
    cache); everywhere else a session source just means "that session's
    current graph", snapshotted at parse time.

    [DELTA] ops use the {!Mincut_graph.Delta} grammar: [add u v w],
    [remove u v], [reweight u v w], [merge u v],
    [split v w x1,x2,…] (["-"] = move nothing).

    [ESTIMATE] arguments: a graph source as above, plus [seed=] and
    [trials=] (connectivity tests per ladder level).  It answers from
    the {!Mincut_core.Sample_estimate} geometric sampling ladder — an
    [O(log n)]-factor bracket on λ in [O(log² n)] simulated rounds,
    never a full solve — so it is the cheap "answer now" tier in front
    of [SOLVE].

    Responses: [OK …] / [QUEUED <ticket>] / [SHED <ticket>] /
    [RESULT <ticket> …] / [DONE <count>] / [STATS <json>] / [PONG] /
    [BYE] / [ERR <message>]. *)

type source =
  | Named of string
  | Family of { family : string; size : int; gseed : int; weight_max : int }
  | Session of string  (** an open session's live graph *)

type solve_args = {
  source : source;
  algorithm : Mincut_core.Api.algorithm;
  seed : int;
  trees : int option;
  priority : int;
  deadline_ms : float option;  (** relative; server anchors it at submit time *)
}

type estimate_args = {
  esource : source;
  eseed : int;
  etrials : int option;  (** connectivity tests per ladder level *)
}

type command =
  | Graph_def of { name : string; n : int; m : int }
  | Solve of solve_args
  | Submit of solve_args
  | Estimate of estimate_args
  | Session_open of { sname : string; ssource : source }
  | Delta_op of { sname : string; dop : Mincut_graph.Delta.op }
  | Flush
  | Stats
  | Ping
  | Help
  | Quit
  | Shutdown
  | Nop  (** blank line or [#] comment: no response *)

val parse : string -> (command, string) result
(** Parse one request line. *)

val parse_with_payload : string -> (command, string * int) result
(** {!parse}, with the number of payload lines a rejected request
    announced: a [GRAPH <name> <n> <m>] header whose [m] is a
    non-negative integer carries [m] whether or not its [n] is accepted
    (n above {!Mincut_graph.Graph.max_nodes}, say); every other error
    carries 0.  The server drains them after the ERR line, so one
    request still gets one reply. *)

val format_response : Request.response -> string
(** The [key=value] tail shared by [OK] and [RESULT] lines:
    [value=… rounds=… cached=… ms=… key=…]. *)

val format_estimate :
  elapsed_ms:float -> Mincut_core.Sample_estimate.result -> string
(** The [key=value] tail of an [ESTIMATE] response:
    [estimate=… lower=… upper=… level=… trials=… rounds=… saturated=… ms=…]. *)

val help_lines : string list
