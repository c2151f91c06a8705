(** Per-domain scratch int arrays for temporaries that never leave a call.

    OCaml allocates a block over [Max_young_wosize] (256 words) straight
    into the major heap, so once n > 256 every n-sized temporary of a
    per-tree computation is a major allocation that the next major cycles
    must mark and sweep.  A [frame] hands out int arrays from a stack
    kept per domain instead: the first use at a size allocates, and every
    later one reuses.

    Frames nest: a frame opened inside another takes arrays above the
    ones its caller holds and gives them back when it ends, so nested or
    repeated use within one domain allocates nothing once the stack has
    grown.  Each pool worker has its own stack ([Domain.DLS]), so no
    locks are taken.

    Two rules keep this safe, and callers must keep them:
    - an array from [ints] must not be used after its frame ends (it
      does not escape: not returned, not stored in a result);
    - an array may be longer than asked for and holds stale contents:
      read only the first [len] cells, after writing them. *)

type frame

val frame : (frame -> 'a) -> 'a
(** [frame f] runs [f] with a fresh frame on this domain's stack and
    releases every array taken in it when [f] returns or raises. *)

val ints : frame -> int -> int array
(** [ints fr len]: an array of length at least [len], contents
    arbitrary. *)

val filled : frame -> int -> int -> int array
(** [filled fr len x]: as {!ints}, with the first [len] cells set to
    [x]. *)
