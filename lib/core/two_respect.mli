(** Minimum cuts that 2-respect a tree — Karger's full machinery, as the
    natural extension of the paper.

    The paper finds cuts crossing a packed tree {e once}; Karger's
    near-linear sequential algorithm [Kar00] also handles cuts crossing
    {e twice}, which slashes the number of trees needed: by Karger's
    packing theorem, a packing of value ≥ λ/2 (a few trees, vs the
    λ⁷ log³ n of Thorup's 1-respect theorem) already contains a tree
    that 2-respects some minimum cut.  Distributedly this is precisely
    the follow-up line that culminated in Mukhopadhyay–Nanongkai
    [STOC 2020], still Õ(√n + D).

    A 2-respecting candidate is determined by two tree nodes v, w
    (≠ root).  With [E(X,Y)] the total weight between node sets:
    - v, w incomparable:  side [v↓ ∪ w↓],
      [C = C(v↓) + C(w↓) − 2·E(v↓, w↓)];
    - w a descendant of v:  side [v↓ \ w↓],
      [C = C(v↓) + C(w↓) − 2·(δ↓(w) − E(w↓, v↓))].

    This module computes all pairwise [E(v↓, w↓)] by two subtree-sum
    sweeps over an n×n matrix (O(n²) time/space — fine at simulator
    scale), takes the min over all 1- and 2-respecting candidates, and
    charges the distributed cost at the published follow-up bound. *)

type kind =
  | One of int          (** best cut crosses the tree once, at v↓ *)
  | Two of int * int    (** best cut is the (v, w) 2-respecting candidate *)

type result = {
  value : int;
  side : Mincut_util.Bitset.t;
  kind : kind;
  cost : Mincut_congest.Cost.t;
}

val run : ?params:Params.t -> Mincut_graph.Graph.t -> Mincut_graph.Tree.t -> result
(** Minimum over all cuts 1- or 2-respecting the tree.  Requires n ≥ 2. *)

val min_cut :
  ?params:Params.t ->
  ?pool:Mincut_parallel.Pool.t ->
  ?trees:int ->
  Mincut_graph.Graph.t ->
  result
(** Exact min cut via packing + 2-respect; [trees] defaults to
    [max 8 (2·⌈log₂ n⌉)] — the Karger-style budget, much smaller than
    the 1-respect default.  Each distinct packed tree is swept once
    and every packed tree charged, as in {!Exact.run}.  [pool] (default
    sequential) fans the sweeps over domains with an index-ordered
    merge, so the result is bit-identical for any worker count. *)
