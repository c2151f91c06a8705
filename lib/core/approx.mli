(** (1+ε)-approximate minimum cut in Õ((√n + D)/poly ε) rounds — the
    paper's "standard reduction" from the exact algorithm.

    Karger's sampling lemma ([Tho07, Lemma 7]): sample every unit of
    weight with probability [p = Θ(log n / (ε²·λ))]; w.h.p. every cut of
    the skeleton is within (1±ε/3) of [p] times its value in [G], and in
    particular the skeleton's min cut is [O(log n/ε²)] — small enough
    for the exact poly(λ) algorithm.  The subtree side found in the
    skeleton is then {e evaluated as a cut of the original graph}, so
    the returned value is always a genuine cut value ≥ λ.

    Since [λ] is unknown, the sampling probability is found by downward
    exponential search on a guess [λ̂] (starting from the min-degree
    upper bound): if the skeleton's min cut comes out below the
    concentration threshold the guess was too high and is halved; once
    [p] reaches 1 the algorithm degenerates to the exact one. *)

type result = {
  value : int;                  (** C_G(side) — a real cut of G *)
  side : Mincut_util.Bitset.t;
  p : float;                    (** final sampling probability *)
  skeleton_value : int;         (** min cut found in the skeleton *)
  guesses : int;                (** λ̂ halvings performed *)
  cost : Mincut_congest.Cost.t;
}

val run :
  ?params:Params.t ->
  ?trees:int ->
  ?pool:Mincut_parallel.Pool.t ->
  rng:Mincut_util.Rng.t ->
  epsilon:float ->
  Mincut_graph.Graph.t ->
  result
(** [trees] is the packing budget used on the skeleton (default 32).
    Requires a connected graph with n ≥ 2 and [epsilon > 0].  [pool]
    runs the per-tree DP inside each internal exact solve; the result is
    bit-identical for any worker count. *)
