(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).

    The chunked graph store guards every on-disk chunk payload with a
    CRC so that torn writes and bit rot surface as a clean versioned
    format error instead of a silently corrupt graph.  FNV
    ({!Mincut_util.Hash}) is kept for content addressing — it is faster
    to stream but has no error-detection guarantees; CRC-32 detects all
    burst errors up to 32 bits, which is the failure mode disks and
    interrupted writes actually produce.

    Digests are returned as non-negative [int]s (fits easily in OCaml's
    63-bit native int). *)

val bytes : Bytes.t -> pos:int -> len:int -> int
(** CRC of [len] bytes of [b] starting at [pos].  Raises
    [Invalid_argument] when the range is out of bounds. *)
