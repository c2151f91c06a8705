(** Per-node outputs and distributed self-verification.

    The paper's problem statement requires that "every node outputs
    whether it is in X in the end of the process".  This module turns an
    {!Api.summary} into exactly those per-node outputs, and implements
    the cheap distributed certification that makes any claimed cut
    self-checking:

    - every node exchanges its membership bit with each neighbor
      (1 round) and sums the weight of its incident cut-crossing edges;
    - a convergecast adds these local contributions over the BFS tree
      (each crossing edge is counted at both endpoints, so the root
      compares the total against twice the claimed value);
    - nodes also verify non-triviality (both sides inhabited) via two
      more aggregate bits.

    The check is sound for any claimed (value, side): it accepts iff the
    side truly cuts exactly [value], in O(D) rounds — this is the
    distributed analogue of {!Api.verify}, and the costed path the CLI's
    [--check] would take on a real network. *)

type report = {
  accepted : bool;
  claimed : int;
  recomputed : int;    (** Σ_v local crossing weight / 2 *)
  rounds : int;        (** simulated rounds of the certification itself *)
}

val outputs : Mincut_graph.Graph.t -> Mincut_util.Bitset.t -> bool array
(** [outputs g side] — the per-node bit "I am in X". *)

val certify : Mincut_graph.Graph.t -> value:int -> side:Mincut_util.Bitset.t -> report
(** Run the distributed certification on the engine (real messages).
    Requires a connected graph with n ≥ 2. *)

val certify_summary : Mincut_graph.Graph.t -> Api.summary -> report
(** [certify] applied to a summary's claim. *)
