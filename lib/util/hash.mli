(** Streaming 64-bit FNV-1a hashing.

    The serving layer addresses cached results by a structural digest of
    the input graph, so the hash must be (a) deterministic across runs
    and OCaml versions — unlike [Hashtbl.hash], whose output is not
    specified — and (b) cheap to feed incrementally from canonicalized
    data.  FNV-1a over the canonical byte stream satisfies both; 64 bits
    keep the collision probability negligible at any realistic cache
    population (birthday bound ≈ 2⁻³² at four billion distinct keys),
    and cache keys additionally carry [n]/[m] guards. *)

type t
(** Mutable hashing state. *)

val create : unit -> t
(** Fresh state at the FNV-1a offset basis. *)

val add_byte : t -> int -> unit
(** Feed the low 8 bits of the argument. *)

val add_int : t -> int -> unit
(** Feed a native int as 8 little-endian bytes. *)

val add_int64 : t -> int64 -> unit

val add_string : t -> string -> unit
(** Feed every byte of the string (no length prefix; callers that need
    unambiguous framing should [add_int] the length themselves). *)

val value : t -> int64
(** Current digest.  The state remains usable afterwards. *)

val to_hex : int64 -> string
(** 16-character lowercase hex rendering of a digest. *)

val of_hex : string -> int64 option
(** Inverse of [to_hex]; [None] on malformed input. *)
