(** Karger's edge sampling (skeletons).

    The paper converts its exact-for-small-λ algorithm into a
    (1+ε)-approximation through Karger's sampling theorem (as packaged in
    [Tho07, Lemma 7]): sampling each unit of weight independently with
    probability [p = Θ(log n / (ε² λ))] gives a skeleton graph whose cuts
    are all within (1 ± ε) of [p] times their original value, w.h.p.; in
    particular its min cut is O(log n / ε²) — small enough for the
    poly(λ)-time exact algorithm.

    Weighted edges are treated as bundles of parallel unit edges, so the
    skeleton weight of an edge is Binomial(w, p). *)

type skeleton = {
  graph : Graph.t;  (** the sampled skeleton H *)
  p : float;        (** sampling probability used *)
}

val sample : rng:Mincut_util.Rng.t -> Graph.t -> p:float -> skeleton
(** Independent Binomial(w, p) thinning of every edge. *)

val recommended_p : n:int -> epsilon:float -> lambda_estimate:int -> float
(** [min 1 (c·ln n / (ε²·λ̂))] with the constant used throughout the
    repo (c = 3). *)
