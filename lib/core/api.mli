(** Convenience front end over the four algorithms.

    Typical use:
    {[
      let g = Mincut_graph.Generators.gnp_connected ~rng 256 0.05 in
      let r = Mincut_core.Api.min_cut g in
      Printf.printf "λ = %d in %d simulated rounds\n" r.value r.rounds
    ]} *)

type algorithm =
  | Exact_small_lambda          (** the paper's Õ((√n+D)·poly λ) exact algorithm *)
  | Exact_two_respect           (** extension: Karger 2-respecting cuts, far fewer trees *)
  | Approx of float             (** (1+ε): the paper's headline result *)
  | Ghaffari_kuhn of float      (** (2+ε) baseline [DISC 2013] *)
  | Su of float                 (** concurrent (1+ε)-style baseline [SPAA 2014] *)

val algorithm_name : algorithm -> string

val solve_tag : algorithm -> int -> int option -> string
(** [solve_tag algorithm seed trees] — the stable key prefix
    [<algorithm>|s<seed>|t<trees or ->], with ε rendered exactly
    ([exact], [exact2], [approx:0x1p-1], …).  Unlike {!algorithm_name}
    it is meant for keys, not for humans, and will never be reworded:
    session anchors and the serve cache keys are built on it. *)

type summary = {
  algorithm : algorithm;
  value : int;                       (** cut value found (exact: = λ) *)
  side : Mincut_util.Bitset.t;       (** achieving side X; each node knows
                                         whether it is in X, per the problem
                                         statement *)
  rounds : int;                      (** simulated CONGEST rounds *)
  cost : Mincut_congest.Cost.t;      (** the provenance-tagged span tree
                                         of the whole run *)
  breakdown : (string * int) list;   (** derived flat view of [cost]:
                                         per-step round costs, leaves in
                                         execution order *)
}

val estimate :
  ?seed:int -> ?trials:int -> Mincut_graph.Graph.t -> Sample_estimate.result
(** The geometric edge-sampling λ-estimate ({!Sample_estimate.run}):
    an [O(log n)]-factor bracket on the min cut from [O(log²n)]
    connectivity tests — serve's "approximate answer now, exact later"
    tier, and the packing-budget cap for [lambda_upper] below. *)

val min_cut :
  ?params:Params.t ->
  ?algorithm:algorithm ->
  ?seed:int ->
  ?lambda_upper:int ->
  ?trees:int ->
  ?workers:int ->
  Mincut_graph.Graph.t ->
  summary
(** Run the chosen algorithm (default [Exact_small_lambda]) on a graph
    with n ≥ 2.  [seed] (default 0) drives the randomized algorithms;
    [trees] overrides the packing budget; [lambda_upper] (typically a
    {!Sample_estimate} [upper]) tightens the default budget of the
    [Exact_small_lambda] pipeline without changing its answer.  On a
    disconnected graph every algorithm answers with {!Exact.run}'s
    0-cut: value 0, the component of node 0 as the side, and one
    component-detection span.

    [workers] (default 1) fans independent per-tree solves over that
    many domains for the [Exact_small_lambda], [Exact_two_respect] and
    [Approx] pipelines.  Results are merged in deterministic index
    order, so the summary is bit-identical for every worker count —
    [workers] is a throughput knob only and must never enter a cache
    key derived from the inputs. *)

val one_respecting_cut :
  ?params:Params.t -> Mincut_graph.Graph.t -> Mincut_graph.Tree.t -> One_respect.result
(** Direct access to Theorem 2.1 for a caller-supplied spanning tree. *)

val verify : Mincut_graph.Graph.t -> summary -> bool
(** Recompute [C(side)] from the definition and compare with [value] —
    cheap certification of any summary. *)

(** {2 Incremental sessions}

    A session wraps a {!Mincut_graph.Handle} (versioned live graph)
    and its {!Incremental} state, and reuses whole summaries across
    versions: while {!Incremental} proves (λ, side) unchanged,
    {!min_cut_session} re-serves the anchored summary without solving.  Fresh solves are seeded with
    [?lambda_upper] = the session's exact λ — the tightest valid
    packing-budget cap. *)

type session

type delta_answer = Incremental.answer = {
  lambda : int;  (** λ of the new version *)
  mode : Incremental.mode;  (** which tier answered (see {!Incremental}) *)
}

val open_session : ?params:Params.t -> Mincut_graph.Graph.t -> session
(** Open at version 0; solves λ eagerly (needs [n >= 2]).
    [params] is the round-accounting regime for every solve in this
    session (default {!Params.default}). *)

val apply_delta :
  session ->
  Mincut_graph.Delta.op ->
  (Mincut_graph.Handle.outcome * delta_answer, string) result
(** Apply one delta and answer λ for the new version through the
    cheapest valid tier.  [Error] leaves the session untouched. *)

val min_cut_session :
  ?algorithm:algorithm ->
  ?seed:int ->
  ?trees:int ->
  session ->
  summary * bool
(** Full summary of the live version.  [true] = served from an anchor
    ({!Incremental} proved the previous summary for these solve
    coordinates still optimal — no solve ran).  Fresh solves run on
    one domain. *)

val session_lambda : session -> int
val session_side : session -> Mincut_util.Bitset.t
val session_handle : session -> Mincut_graph.Handle.t
val session_graph : session -> Mincut_graph.Graph.t
val session_stats : session -> Incremental.stats
