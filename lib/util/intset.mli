(** Canonical integer sets: strictly-increasing duplicate-free lists.

    Unlike [Stdlib.Set] (whose AVL shape depends on insertion order),
    every value here has exactly one in-memory representation, so
    structural equality, [Marshal] images and hashes of containing
    states are insertion-order independent.  The CONGEST sanitizer
    ({!Mincut_congest.Config.sanitize}) relies on this: node states
    built from permuted inboxes must be byte-identical, not merely
    semantically equal.

    Operations are O(cardinal); intended for the small per-node sets
    CONGEST programs carry (pipelined item buffers of O(√n) ids). *)

type t = private int list
(** The [private] view lets consumers pattern-match and iterate
    without being able to construct a non-canonical value. *)

val empty : t

val add : int -> t -> t

val of_list : int list -> t

val elements : t -> int list
(** Strictly increasing. *)

val cardinal : t -> int

val min_elt_opt : t -> int option

val diff : t -> t -> t
(** [diff a b] — elements of [a] not in [b]. *)

val remove_min : t -> t
(** The set without its least element ([empty] stays [empty]); O(1)
    and allocation-free, so a pipelined sender that keeps its unsent
    items here pops the next one for free. *)

val equal : t -> t -> bool
