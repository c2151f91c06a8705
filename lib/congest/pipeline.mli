(** Analytic round counts for standard pipelined schedules.

    These are the textbook pipelining lemmas (Peleg, ch. 3–4) that the
    paper invokes implicitly every time it says "this takes O(√n) time
    since there are O(√n) items":

    - broadcasting [k] items from the root of a tree of depth [d]
      completes in [d + k] rounds (item [i] crosses depth [j] at round
      [i + j]);
    - upcasting [k] distinct items to the root completes in [d + k]
      rounds with the send-smallest-unsent rule;
    - a convergecast in which every node forwards at most [l] items to
      its parent (max per-edge load [l]) completes in [d + l] rounds;
    - exchanging [k] items over a single edge takes [k] rounds (one item
      per direction per round).

    The distributed min-cut phases call these with quantities measured
    from the live execution (actual depths, item counts, and edge
    loads), so the resulting costs are schedules of this run, not
    formulas about a hypothetical one.  The real message-level programs
    in {!Primitives} implement the same schedules and are tested to match
    these counts.

    Round counts from this module become [Scheduled] spans in the
    {!Cost} tree (wrap them with {!Cost.scheduled}); counts measured on
    {!Network} become [Executed] spans, and published bounds become
    [Charged] spans — experiment A2 compares the first two kinds
    phase-by-phase. *)

val broadcast : depth:int -> items:int -> int

val upcast : depth:int -> items:int -> int

val convergecast : depth:int -> max_edge_load:int -> int

val exchange : items:int -> int
