(** Versioned graph handles: the live channel map of a graph that
    {!Delta}s edit in place, with an O(1)-per-channel-touch {e rolling}
    structural digest.

    The handle works on the channel view of the graph (parallel edges
    aggregated per node pair — cut-preserving, see {!Delta}); {!of_graph}
    takes that quotient once, so a multigraph and its aggregation open
    identical sessions.  {!current} materializes the canonical
    representative of the live version — channels sorted by endpoints —
    and memoizes it until the next delta.  The handle keeps no history:
    its size follows the live graph, not the number of deltas applied.

    {b The rolling digest.} The plain cache digest
    ({!Mincut_serve.Graph_key.structural_hash}) is FNV-1a over the
    {e sorted} edge list — order-dependent by construction, so a
    one-channel change would force a full O(m log m) rehash.  The handle
    instead maintains a {e commutative multiset} digest: the mod-2⁶⁴ sum
    of one FNV-1a hash per channel triple, wrapped together with the
    node/channel/weight counts.  Addition commutes, so applying a delta
    only adds/subtracts the touched channels' contributions —
    O(|delta|), never O(m) — and the rolled value equals the digest of
    a fresh {!of_graph} on {!current} (a tested invariant). *)

type t

type change = {
  cu : int;  (** channel endpoint, [cu < cv] *)
  cv : int;
  before : int;  (** weight before the delta; 0 = channel absent *)
  after : int;  (** weight after; 0 = channel removed *)
}

type outcome = {
  version : int;  (** version after this delta *)
  changes : change list;
      (** channel-level effects, which [Incremental]'s tier choice reads;
          empty when [renumbered], which re-solves anyway *)
  renumbered : bool;
      (** a merge/split changed the node-id space: every per-node
          structure derived from the previous version is stale *)
}

val of_graph : Graph.t -> t
(** Open a handle at version 0 on the channel aggregation of [g]. *)

val apply : t -> Delta.op -> (outcome, string) result
(** Apply one delta.  [Error] (malformed endpoints, absent channel, …)
    leaves the handle untouched.  A no-op reweight (same weight)
    succeeds with [changes = []] and does not bump the version. *)

val current : t -> Graph.t
(** The live version's canonical representative (channels sorted by
    endpoints).  Memoized; O(m log m) after a delta, O(1) until the
    next one. *)

val version : t -> int
val n : t -> int
val channels : t -> int
(** Number of live channels (= edges of {!current}). *)

val total_weight : t -> int
val channel_weight : t -> int -> int -> int
(** Weight of the channel between two nodes, 0 when absent.  Endpoint
    order is irrelevant. *)

val channel_array : t -> (int * int * int) array
(** All channels as sorted [(u, v, w)] triples (a fresh array). *)

val digest : t -> int64
(** The rolled commutative multiset digest of the live version. *)
