(** Deterministic-replay checking.

    The repo's reproducibility claim is that a simulation is a pure
    function of (graph, seed, parameters): every rerun must produce a
    bit-identical result {e and} a bit-identical execution — same round
    count, same per-round message counts, same words on the wire.
    Hidden nondeterminism (ambient [Random] state, hash-order iteration
    leaking into message order, wall-clock reads) shows up as an audit
    diff long before it corrupts a cut value, so the checker runs a
    program twice and diffs the full {!Mincut_congest.Network.audit}.

    The combinators are generic (any ['a] with an explicit differ), so
    {!Certify} also replays whole pipelines and diffs their summaries. *)

type 'a outcome = ('a, string list) result
(** [Ok value] when both runs agreed ([value] is the first run's);
    [Error diffs] listing every field that disagreed. *)

val diff_audits :
  Mincut_congest.Network.audit -> Mincut_congest.Network.audit -> string list
(** Field-by-field differences (rounds, message totals, words, per-round
    profile), empty when identical. *)

val diff_summary : Mincut_core.Api.summary -> Mincut_core.Api.summary -> string list
(** Value, rounds, side, breakdown and the span tree (provenance
    included). *)

val diff_one_respect :
  Mincut_core.One_respect.result -> Mincut_core.One_respect.result -> string list
(** Best value and node, every subtree cut, rounds, breakdown and the
    span tree. *)

val check : run:(unit -> 'a) -> diff:('a -> 'a -> string list) -> 'a outcome
(** Evaluate [run] twice and diff the results. *)

val diff_named : name:string -> equal:('a -> 'a -> bool) -> 'a -> 'a -> string list
(** Helper for building composite differs: [[]] when equal, a one-entry
    ["name differs"] list otherwise. *)
