(** Fixed-capacity bitset over [0 .. n-1].

    Backed by an int array (62 useful bits per word).  Used for visited
    sets, cut sides, and sampled-edge masks where a [bool array] would be
    8x larger and cut comparison needs fast popcount. *)

type t

val create : int -> t
(** All-zero set with capacity [n]. *)

val capacity : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val cardinal : t -> int

val to_list : t -> int list

val copy : t -> t

val complement_inplace : t -> unit
(** Flip membership of every element in [0 .. capacity-1]. *)

val equal : t -> t -> bool
