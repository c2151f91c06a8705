(** Incremental min-cut over a {!Mincut_graph.Handle}: a maintained
    Nagamochi–Ibaraki sparse certificate answers λ after every delta,
    and a full re-solve happens only when the certificate is
    invalidated.

    {b The certificate.} A [k]-jungle: [k] spanning forests built by
    greedy unit placement — each weight unit of a channel goes into the
    lowest-indexed forest where its endpoints are still disconnected,
    and units that fit nowhere are dropped.  The union [H] of the
    forests preserves every cut of value [< k] of the live graph [G]
    exactly and keeps every other cut at [>= k] (any greedy order: a
    dropped unit certifies a full [u]–[v] path in each forest), so
    [λ(G) = λ(H)] with the same optimal sides whenever [λ(G) < k].
    [k] tracks [2λ + 2], capped at one past the minimum weighted degree
    (where saturation is impossible).

    {b The three answer tiers}, cheapest first:

    - {e Reused}: every channel touched since the last anchored answer
      only {e gained} weight and none crosses the anchored min-cut side
      — λ and the side are provably unchanged, O(|delta|).
    - {e Cert_solved}: weight-increase-only deltas, but one crossed the
      side.  The jungle is still a valid certificate (NI certificates
      are closed under edge insertion), so λ is recomputed exactly by a
      sequential Stoer–Wagner pass over the {e sparse} certificate.
    - {e Resolved}: a removal, weight decrease, merge or split (or a
      saturated certificate) invalidated the jungle — full re-solve
      from scratch: rebuild the forests over the compacted graph and
      Stoer–Wagner the fresh certificate.  {!stats} exposes the rate.

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
      (** tier-2 answers (Stoer–Wagner over the live certificate) *)
  mutable full_resolves : int;
      (** tier-3 answers: certificate rebuilt from the compacted graph *)
}

val fallback_rate : stats -> float
(** [full_resolves / deltas_applied] (0 when no deltas). *)

type t

val create : Mincut_graph.Graph.t -> t
(** Open at version 0 of the channel aggregation of the graph; builds
    the initial certificate and resolves λ eagerly.  The initial build
    is not counted in {!stats}. *)

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

val compact : t -> unit
(** {!Mincut_graph.Handle.compact} the handle.  The certificate, λ, the
    side and {!generation} all survive — compaction is observationally
    invisible, which is what makes delta-then-solve and
    compact-then-solve bit-identical. *)

val stats : t -> stats

val cert_k : t -> int
(** Current certificate degree bound [k] (always [> λ]). *)

val cert_graph : t -> Mincut_graph.Graph.t
(** The maintained certificate [H] as a graph on the live node set —
    for tests: [λ(H) = λ(G)] whenever [λ(G) < k]. *)
