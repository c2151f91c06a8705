(** The CONGEST-model certifier: one driver over the three analyzers.

    [run] certifies the shipped tree end to end:
    - {!Sanitize} — every shipped primitive re-executed under permuted
      inbox orders on three workloads, plus probe-tracked payload and
      state footprints on the raw BFS program;
    - {!Costcheck} — span-tree laws over full [Api.min_cut] summaries
      and the one-respect formula table, in both parameter modes;
    - {!Scaling} — asymptotic envelope fits over the gnp ladder.

    [inject] seeds one deliberate defect instead and runs only the
    analyzer that must catch it — the report then {e fails}, proving
    the certifier is live.  The three defects: an inbox-order-dependent
    toy program, a mis-tagged [Executed] span whose rounds disagree
    with its engine audit, and a primitive patched to send
    Θ(√n)-word payloads under a permissive engine budget. *)

type check = {
  name : string;
  ok : bool;
  details : string list;  (** failure lines; empty when [ok] *)
}

type report = { checks : check list; ok : bool }

type defect = Order | Span | Payload

val defect_of_name : string -> defect option

val run :
  ?quick:bool ->
  ?slack:float ->
  ?inject:defect ->
  ?extra:(unit -> check list) ->
  unit ->
  report
(** [quick] shrinks the scaling ladder (drops n = 128) for CI;
    [slack] overrides {!Scaling.default_slack}.  [extra] appends
    caller-supplied checks to a normal (non-inject) run — the hook by
    which layers {e above} this library (the serve layer certifies
    delta/compact equivalence through it) join the certification report
    without inverting the serve → analysis dependency. *)

val to_json : report -> Mincut_util.Json.t
