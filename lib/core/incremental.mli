(** Incremental min-cut over a {!Mincut_graph.Handle}: λ and a side
    achieving it are answered after every delta, and a re-solve happens
    only when the delta can have changed them.

    {b The live graph certifies itself.} Every re-solve is
    {!Mincut_graph.Mincut_seq.min_cut} on {!Mincut_graph.Handle.current}:
    Stoer–Wagner, or node 0's component (λ = 0) when the live graph is
    disconnected.  No sparse certificate is kept: the sequential oracle
    is the O(n³) matrix Stoer–Wagner, which costs the same on a
    certificate as on the live graph.

    {b The three answer tiers}, cheapest first:

    - {e Reused}: every channel the delta touched only {e gained} weight
      and none crosses the current side — every cut is at least as heavy
      and this one is unchanged, so λ and the side are provably
      unchanged, O(|delta|).
    - {e Cert_solved}: a pure weight increase that crosses the side —
      λ may have grown, so the live graph is re-solved.
    - {e Resolved}: a removal, weight decrease, merge or split — λ may
      have dropped (or the node set changed), so the live graph is
      re-solved.  {!stats} exposes the rate.

    Higher layers ({!Api} sessions, the serve cache) reuse whole
    summaries across versions: {!generation} identifies a maximal run
    of versions over which (λ, side) are proven unchanged, so anything
    derived from a solve at generation [g] may be served verbatim while
    [generation t = g]. *)

type mode = Reused | Cert_solved | Resolved

val mode_name : mode -> string
(** ["reused"] / ["cert"] / ["resolved"] — the wire/CLI rendering. *)

type answer = { lambda : int; mode : mode }

type stats = {
  mutable deltas_applied : int;
  mutable reused : int;  (** tier-1 answers (λ proven unchanged) *)
  mutable cert_solves : int;
      (** tier-2 answers (a crossing pure increase, re-solved) *)
  mutable full_resolves : int;
      (** tier-3 answers (a removal, decrease, merge or split, re-solved) *)
}

val fallback_rate : stats -> float
(** [full_resolves / deltas_applied] (0 when no deltas). *)

type t

val create : Mincut_graph.Graph.t -> t
(** Open at version 0 of the channel aggregation of the graph and
    resolve λ eagerly.  The initial solve is not counted in {!stats}.
    Raises [Invalid_argument] when the graph has fewer than 2 nodes. *)

val apply : t -> Mincut_graph.Delta.op -> (Mincut_graph.Handle.outcome * answer, string) result
(** Apply one delta and answer λ for the new version through the
    cheapest valid tier.  [Error] leaves every structure untouched. *)

val lambda : t -> int
(** λ of the live version (always resolved — {!apply} is eager). *)

val side : t -> Mincut_util.Bitset.t
(** A side achieving {!lambda} on the live version.  Do not mutate. *)

val generation : t -> int
(** Bumped exactly when the proven (λ, side) run breaks; see above. *)

val handle : t -> Mincut_graph.Handle.t
val graph : t -> Mincut_graph.Graph.t
(** {!Mincut_graph.Handle.current} of the live version. *)

val stats : t -> stats
