(** Node chunks and the packed chunk-id/local-id addressing scheme.

    The chunked store partitions the node set [0 .. n-1] into
    fixed-size, contiguous chunks of [2^bits] nodes: node [v] lives in
    chunk [v lsr bits] at local index [v land (2^bits - 1)].  A global
    node id therefore {e is} the packed address — splitting and
    repacking are single shift/mask operations, and chunk-aligned data
    never needs an indirection table.

    A resident chunk is a CSR slice of the adjacency restricted to its
    node range: local node [i]'s directed slots are
    [off.(i) .. off.(i+1) - 1]; slot [s] names the {e global} neighbor
    id [nbr.(s)] with edge weight [wgt.(s)].  Slots are sorted by
    (neighbor, weight) within each node, which makes per-row binary
    search possible and gives the store a canonical on-disk order (the
    structural hash walks it directly). *)

type t = {
  cid : int;  (** chunk index *)
  base : int;  (** first global node id = [cid lsl bits] *)
  count : int;  (** nodes covered (the last chunk may be short) *)
  off : int array;  (** length [count + 1] *)
  nbr : int array;  (** global neighbor ids, length [off.(count)] *)
  wgt : int array;  (** edge weights, same length as [nbr] *)
}

val min_bits : int
(** 4 — chunks below 16 nodes make the per-chunk header dominate. *)

val max_bits : int
(** 24. *)

val chunk_of : bits:int -> int -> int
(** Chunk index of a global node id. *)

val local_of : bits:int -> int -> int
(** Local index of a global node id inside its chunk. *)

val num_chunks : bits:int -> n:int -> int
(** ⌈n / 2^bits⌉, and at least 1 so the empty graph still has a home. *)

val default_bits : n:int -> int
(** Chunk size aimed at ≈32 chunks per graph (clamped to
    [min_bits .. max_bits]) — wide enough that the residency manager
    has real eviction decisions to make, small enough that one chunk
    never dominates the byte budget.  The √n-fragment decomposition
    groups O(√n)-diameter regions; ≈32 contiguous ranges is the same
    order of locality for the ladder families. *)

val count_of : bits:int -> n:int -> cid:int -> int
(** Number of nodes the chunk covers ([2^bits], short for the last). *)

val iter_neighbors : t -> local:int -> f:(int -> int -> unit) -> unit
(** [f neighbor weight] per slot, in slot order. *)

val bytes : t -> int
(** Resident footprint estimate in bytes (the three arrays plus header
    words) — the unit of the residency budget. *)
