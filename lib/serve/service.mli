(** The solver service: one long-lived value owning the result cache,
    the request scheduler, the worker pool and the metrics registry.

    Two entry points:

    - {!solve}: synchronous — answer one request now, through the cache.
    - {!submit} + {!flush}: batched — accumulate requests, then drain
      them as coalesced batches; distinct batches run concurrently on
      the worker pool, duplicates are answered from the one solve.

    {b Semantics.} Every request is answered as if by
    [Api.min_cut ~params ~algorithm ~seed ?trees (canonical graph)],
    where the canonical graph is {!Graph_key.canonicalize} of the
    submitted one.  Fixing the canonical representative makes the full
    summary a pure function of the cache key, so a cache hit is
    bit-identical — value, side, rounds, breakdown — to what a fresh
    solve of the same request would return, and memoization can never
    change the CONGEST round accounting a client observes: the cached
    [rounds] {e is} the charge of the simulation that produced the
    entry, replayed verbatim.

    The service itself is single-domain (confine a [t] to one domain);
    only the pure per-batch solves inside {!flush} run on other domains,
    each on its own graph copy. *)

type config = {
  params : Mincut_core.Params.t;  (** round-accounting regime for all solves *)
  cache_entries : int;            (** LRU bound: resident entries *)
  cache_cost : int;               (** LRU bound: total cost in words *)
  workers : int;                  (** worker pool width; 1 = sequential *)
}

val default_config : config
(** [Params.fast], 4096 entries, 16M words, pool default width. *)

type t

val create : ?config:config -> unit -> t

val config : t -> config

val solve : t -> Request.t -> Request.response

val estimate :
  t ->
  ?seed:int ->
  ?trials:int ->
  Mincut_graph.Graph.t ->
  Mincut_core.Sample_estimate.result * float
(** The cheap tier: {!Mincut_core.Api.estimate} on the canonicalized
    graph — an [O(log n)]-factor bracket on λ from the geometric
    sampling ladder, never a full solve.  Returns the result and the
    wall-clock milliseconds spent.  Charged to the [estimates_served] /
    [rounds_estimate] counters and the [estimate_ms] histogram, keeping
    solve round-accounting untouched; results are not cached (a ladder
    re-run is cheaper than a summary-cache entry). *)

val submit : t -> Request.t -> Scheduler.ticket

val pending : t -> int

type flush_result = {
  answered : (Scheduler.ticket * Request.response) list;
      (** in ticket order *)
  shed : Scheduler.ticket list;
      (** tickets whose deadline had already passed at drain time and
          whose answer was not in the cache — dropped {e before} any
          solve ran (a cache hit is free, so expired tickets that hit
          are answered anyway).  Counted by [requests_shed]. *)
}

val flush : t -> flush_result
(** Drain and answer everything pending.  [cached] is true for
    responses answered from an entry that existed before this flush;
    members of a freshly solved batch (including coalesced duplicates)
    report [cached = false] and the duplicates are counted by the
    [requests_coalesced] counter.  Queued work whose deadline expired
    before its solve started is shed, never solved. *)

(** {2 Incremental sessions}

    Named mutable graph sessions ({!Mincut_core.Api.session}: versioned
    handle + incremental λ and side), owned by the service so every client
    of a shared server sees the same evolving graphs.  Session solves go
    through the {e same} summary cache as one-shot solves, but under
    {!Graph_key.versioned_key} — the handle's rolled digest — so a delta
    chain returning to a previously seen structure hits the entry cached
    at the earlier version.

    Counters: [deltas_applied]; [incremental_hits] (answers that needed
    no full solve: reused delta answers, anchored summaries,
    version-chain cache hits); [full_resolves] (delta answers that
    re-solved the live graph: a crossing increase, or a removal,
    decrease, merge or split); [sessions_open] gauge. *)

val session_open : t -> string -> Mincut_graph.Graph.t -> Mincut_core.Api.session
(** Open (or replace) the named session at version 0 of the graph,
    solving λ eagerly.  Uses the service's configured [params]. *)

val find_session : t -> string -> (Mincut_core.Api.session, string) result

val session_delta :
  t ->
  string ->
  Mincut_graph.Delta.op ->
  ( Mincut_core.Api.session
    * Mincut_graph.Handle.outcome
    * Mincut_core.Api.delta_answer,
    string )
  result
(** Apply one delta to the named session and answer λ through the
    cheapest valid tier.  [Error] (unknown session or rejected delta)
    changes nothing. *)

val session_solve :
  t ->
  string ->
  algorithm:Mincut_core.Api.algorithm ->
  seed:int ->
  trees:int option ->
  (Request.response, string) result
(** Full summary of the named session's live version.  [cached] is true
    when no solve ran: a version-chain cache hit or an anchored summary
    ({!Mincut_core.Incremental} proved the previous answer still
    optimal).  Misses solve with [lambda_upper] seeded from the
    session's exact λ and
    populate the cache under the live version's key. *)

val metrics : t -> Metrics.t

val snapshot : t -> Metrics.snapshot
(** Metrics snapshot with cache/queue gauges refreshed first. *)

