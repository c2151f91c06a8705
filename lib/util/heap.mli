(** Binary min-heap keyed by a client-supplied comparison.

    Used by Prim's MST and by the diameter double-sweep; intentionally
    minimal and allocation-light. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Empty heap ordered by [cmp] (smallest element on top). *)

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the minimum, or [None] when empty. *)
