(** Graph update operations — the vocabulary of the versioned handle.

    A delta mutates the {e channel view} of a graph: parallel edges are
    aggregated into one channel per unordered node pair, so a delta
    addresses an edge by its endpoints alone.  This is cut-preserving
    (every cut sees the summed weight either way) and is the natural
    unit of the update streams the chunked-graph exemplar serves.

    Deltas also travel as text: one op per line in update-stream files
    (`mincut delta --stream FILE`) and as the tail of the serve
    protocol's [DELTA] verb.  {!parse} and {!to_line} are inverses on
    the canonical rendering. *)

type op =
  | Add_edge of { u : int; v : int; w : int }
      (** Add [w >= 1] to the channel [{u,v}], creating it if absent. *)
  | Remove_edge of { u : int; v : int }
      (** Delete the channel [{u,v}] entirely (must exist). *)
  | Reweight of { u : int; v : int; w : int }
      (** Set the channel [{u,v}] (must exist) to weight [w >= 1]. *)
  | Merge_nodes of { u : int; v : int }
      (** Contract [v] into [u]: [v]'s channels move to [u] (weights of
          now-parallel channels sum), the [{u,v}] channel becomes a self
          loop and is dropped.  The node-id space shrinks by one: the
          previous last node is renumbered to fill [v]'s slot. *)
  | Split_node of { v : int; w : int; moved : int list }
      (** Detach a new node (id = previous node count) from [v]: every
          channel [{v,x}] with [x] in [moved] is re-attached to the new
          node, and a fresh channel of weight [w >= 1] joins [v] to it —
          so a connected graph stays connected. *)

val to_line : op -> string
(** Canonical one-line rendering:
    [add u v w] / [remove u v] / [reweight u v w] / [merge u v] /
    [split v w x1,x2,...] (a lone [-] for an empty [moved] list). *)

val parse : string -> (op, string) result
(** Parse one line ([#] starts a comment; blank lines are an error —
    callers skip them).  Accepts exactly the {!to_line} grammar. *)

val parse_tokens : string list -> (op, string) result
(** {!parse} on pre-split whitespace tokens (the serve protocol's
    [DELTA <name> <tokens...>] tail). *)

val read_stream : string -> (op list, string) result
(** Parse an update-stream file: one op per line, [#] comments and
    blank lines ignored.  The error names the offending line. *)
