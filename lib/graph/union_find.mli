(** Disjoint-set forest with union by rank and path compression.

    Used by Kruskal's MST, Borůvka merging, Karger contraction, and the
    connectivity checks of the sampling-based algorithms. *)

type t

val create : int -> t
(** [create n] puts each of [0 .. n-1] in its own set. *)

val reset : t -> unit
(** Put every element back in its own set, reusing the arrays. *)

val find : t -> int -> int
(** Canonical representative (with path compression). *)

val union : t -> int -> int -> bool
(** Merge the two sets; [true] iff they were previously distinct. *)

val same : t -> int -> int -> bool

val count : t -> int
(** Number of disjoint sets remaining. *)
