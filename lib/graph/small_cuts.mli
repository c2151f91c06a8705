(** Cuts of size one and two (bridges and cut pairs).

    Before the Õ(√n + D) era, distributed min-cut results targeted tiny
    cuts directly: Pritchard–Thurimella give O(D)-round algorithms for
    cut edges and Õ(D)-round for cut pairs.  This module provides the
    sequential computation behind that specialized baseline
    ({!Mincut_core.Pritchard}) and an oracle for λ ≤ 2 questions in
    tests.

    Weights count as multiplicities: a weight-2 edge is never a bridge,
    and a cut pair must consist of two weight-1 edges. *)

val bridges : Graph.t -> int list
(** Weight-aware bridges: edge ids whose removal disconnects the graph
    and whose weight is 1 (a heavier edge is a parallel bundle). *)

val heavy_bridges : Graph.t -> int list
(** Topological bridges of weight exactly 2 — single-edge cuts of value
    2 in the multiplicity view. *)

val cut_pairs : Graph.t -> (int * int) list
(** All unordered pairs of weight-1 edges {e, f} whose joint removal
    disconnects a bridgeless connected graph — the 2-cuts.  O(m·(n+m));
    an oracle, not a fast algorithm. *)

val edge_connectivity_le2 : Graph.t -> int option
(** [Some 0] if disconnected, [Some 1] if a bridge exists, [Some 2] if a
    cut pair exists, [None] when λ ≥ 3. *)

val side_without : Graph.t -> int list -> Mincut_util.Bitset.t
(** [side_without g ids]: the nodes still reachable from the first
    endpoint of the first listed edge once every listed edge is removed —
    one side of the cut a bridge or a cut pair forms.  Raises
    [Invalid_argument] on an empty list. *)
