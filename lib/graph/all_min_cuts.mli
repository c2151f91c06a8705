(** Enumerating {e all} minimum cuts.

    A graph has at most C(n,2) minimum cuts (Karger), and knowing all of
    them matters for reliability analysis (every one is a failure mode).
    Two enumerators:
    - [exhaustive]: all 2^(n-1) sides, for n ≤ 24 — the oracle;
    - [randomized]: repeated Karger–Stein runs collecting every distinct
      optimal side found; with enough trials this finds all min cuts
      w.h.p. (each is produced with probability Ω(1/log n) per run).

    Sides are canonicalized to exclude node 0, so each cut appears
    once. *)

type t = {
  value : int;                            (** λ *)
  sides : Mincut_util.Bitset.t list;      (** all optimal sides, canonical *)
}

val exhaustive : Graph.t -> t
(** Requires 2 ≤ n ≤ 24 and connectivity. *)

val randomized : rng:Mincut_util.Rng.t -> ?trials:int -> Graph.t -> t
(** Monte-Carlo enumeration ([trials] defaults to [30·log² n]); the
    result's [sides] is a subset of all min cuts that is complete w.h.p.
    Requires n ≥ 2 and connectivity. *)

val canonical : Graph.t -> Mincut_util.Bitset.t -> Mincut_util.Bitset.t
(** The representative of {X, V∖X} that does not contain node 0. *)
