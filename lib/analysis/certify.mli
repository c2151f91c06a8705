(** The CONGEST-model certifier: the one runtime conformance driver.

    [run] certifies the shipped tree end to end over {!workloads}:
    - {!Replay} — the BFS program, the exact and approx pipelines and
      the 1-respecting DP on a Kruskal tree, each run twice with the
      full audits, summaries and span trees diffed;
    - {!Sanitize} — every shipped primitive re-executed under permuted
      inbox orders, plus the c·log n payload-scaling limit on the raw
      BFS program;
    - {!Costcheck} — span-tree laws over full [Api.min_cut] summaries,
      and the five-step shape and formula table of the one-respect tree
      in both parameter modes;
    - {!Scaling} — asymptotic envelope fits over the gnp and store
      ladders;
    - the [Lockcheck] registry, read after every other check has run.

    [inject] seeds one deliberate defect instead and runs only the
    analyzer that must catch it — the report then {e fails}, proving
    the certifier is live.  The three defects: an inbox-order-dependent
    toy program, a mis-tagged [Executed] span whose rounds disagree
    with its engine audit, and a primitive patched to send
    Θ(√n)-word payloads under a permissive engine budget. *)

type check = {
  name : string;
  ok : bool;
  details : string list;
      (** one line per workload or fit; every failure is listed *)
}

type report = { checks : check list; ok : bool }

type defect = Order | Span | Payload

val defect_of_name : string -> defect option

val workloads : unit -> (string * Mincut_graph.Graph.t) list
(** torus4, grid5 and gnp24: the graphs every per-workload check runs on. *)

val per_workload : string -> (Mincut_graph.Graph.t -> string list) -> check
(** [per_workload name f] runs [f] on each of {!workloads}; [f] returns
    that workload's failure lines, and an exception counts as one.  The
    check passes when every list is empty; its details name each
    workload, with ["ok"] or its failures. *)

val run :
  ?quick:bool ->
  ?slack:float ->
  ?inject:defect ->
  ?extra:(unit -> check list) ->
  unit ->
  report
(** [quick] shrinks the scaling ladder (drops n = 128) for CI;
    [slack] overrides {!Scaling.default_slack}.  [extra] appends
    caller-supplied checks to a normal (non-inject) run, before the
    lockcheck check — the hook by which layers {e above} this library
    (the serve layer's warm-vs-cold replay) join the report without
    inverting the serve → analysis dependency. *)

val to_json : report -> Mincut_util.Json.t
