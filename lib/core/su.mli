(** The concurrent result of Su [SPAA 2014] as a baseline.

    Su starts from the same Thorup packing but finds the cut that
    1-respects a tree differently: sample edges so that the minimum cut
    of the sampled graph drops to one, then locate a {e bridge} with
    Thurimella's algorithm — the bridge's side is a candidate cut.  As
    the paper notes, the drawback is that the minimum cut can no longer
    be computed exactly, even when it is small.

    This module reproduces that behaviour: downward exponential search
    over the guess λ̂ chooses a sampling probability aiming the skeleton
    min cut at Θ(1); bridges of the skeleton are found (sequentially by
    Tarjan's algorithm, charged at Thurimella's Õ(√n + D) bound) and
    each bridge side — a connected component of the skeleton minus the
    bridge — is evaluated as a cut of [G].  Three samples per guess
    reduce the variance. *)

type result = {
  value : int;                   (** best candidate cut value found *)
  side : Mincut_util.Bitset.t;
  samples : int;                 (** skeletons examined *)
  cost : Mincut_congest.Cost.t;
}

val run :
  ?params:Params.t ->
  rng:Mincut_util.Rng.t ->
  epsilon:float ->
  Mincut_graph.Graph.t ->
  result
(** Requires a connected graph with n ≥ 2 and [epsilon > 0]. *)
