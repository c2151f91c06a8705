(** Pritchard–Thurimella small-cut baseline.

    Before the Õ(√n + D) generation, distributed min-cut results
    targeted λ ∈ {1, 2} directly: Pritchard and Thurimella (ICALP 2008 /
    TALG 2011) find all cut edges in O(D) rounds and all cut pairs in
    Õ(D) rounds using skew-symmetric labelings.  This module models that
    baseline: the sequential cut detection is computed for real
    ({!Mincut_graph.Small_cuts}), the round cost is charged at their published
    bounds, and the answer is only conclusive when λ ≤ 2 — the
    specialization the paper's poly(λ) algorithm generalizes.

    Used by the benchmark's A4 experiment: for λ ≤ 2 this baseline is
    much cheaper than the general algorithm (O(D) vs Õ(√n + D)); from
    λ ≥ 3 it can only answer "λ ≥ 3". *)

type verdict =
  | Cut_found of { value : int; side : Mincut_util.Bitset.t }
  | Lambda_at_least_3

type result = { verdict : verdict; cost : Mincut_congest.Cost.t }

val run : Mincut_graph.Graph.t -> result
(** Requires n ≥ 2.  Disconnected graphs yield [Cut_found] with value 0. *)
