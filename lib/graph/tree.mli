(** Rooted spanning trees and subtree computations.

    The paper's Section 2 is entirely about a spanning tree [T] of the
    network rooted at [r]: the candidate cuts are the subtree cuts
    [C(v↓)], and Karger's lemma evaluates them from the subtree
    aggregates [δ↓] and [ρ↓].  This module provides the rooted-tree
    representation shared by the sequential reference implementation and
    the distributed algorithm, including an O(1) LCA oracle used by both
    (the distributed Step 5 reads each edge's LCA from it).

    Every subtree is a contiguous slice of the preorder, so ancestry is
    two comparisons of preorder positions, {!subtree_members} is a
    slice, and the LCA oracle reads the same positions. *)

type t = private {
  graph_n : int;           (** number of nodes of the underlying graph *)
  root : int;
  parent : int array;      (** [-1] at the root *)
  children : int array array;
  depth : int array;       (** hop depth from the root *)
  preorder : int array;    (** all nodes, parents before children *)
  pos : int array;         (** each node's index in [preorder] *)
  stop : int array;        (** one past the last index of v↓ in [preorder]:
                               v↓ is positions [pos v .. stop v - 1] *)
}

val of_parents : graph_n:int -> root:int -> parent:int array -> t
(** Build from a parent map.  Raises [Invalid_argument] if the parent map
    is not a tree spanning all [graph_n] nodes rooted at [root]. *)

val of_edge_ids : Graph.t -> root:int -> int list -> t
(** Build from the edge ids of a spanning tree of [g], oriented away from
    [root].  Raises [Invalid_argument] if the edges do not form a
    spanning tree. *)

val bfs_tree : Graph.t -> root:int -> t
(** The BFS tree of a connected graph. *)

val is_ancestor : t -> int -> int -> bool
(** [is_ancestor t a v] — true when [v ∈ a↓] (reflexive). *)

val height : t -> int
(** Maximum depth. *)

val n_nodes : t -> int

val accumulate_up : t -> int array -> int array
(** [accumulate_up t x] returns [y] with [y.(v) = Σ_{u ∈ v↓} x.(u)] — the
    subtree-sum operator that turns [δ] into [δ↓] and [ρ] into [ρ↓]. *)

val subtree_members : t -> int -> int list
(** Nodes of [v↓] in preorder: a contiguous slice of [preorder],
    O(|v↓|). *)

(** LCA oracle: a sparse table of the shallowest node over preorder
    positions, O(n log n) preprocessing and O(1) allocation-free
    queries. *)
module Lca : sig
  type tree = t

  type t

  val build : Mincut_util.Scratch.frame -> tree -> t
  (** The table is taken from the frame, so the oracle is valid until
      that frame ends and must not be used after it.  Two oracles built
      in one frame do not share a table. *)

  val query : t -> int -> int -> int
  (** Least common ancestor of the two nodes. *)
end
