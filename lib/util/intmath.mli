(** Integer helpers shared by the round and budget formulas. *)

val ceil_log2 : int -> int
(** [ceil_log2 x] is the smallest [k >= 0] with [2^k >= x]: [0] for
    [x <= 1], and at most [62] (the value at [max_int]), so it is total
    and never overflows. *)
