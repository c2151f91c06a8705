(** Kutten–Peleg tree partition — Step 1 of the paper's algorithm.

    Partitions a rooted spanning tree [T] into [O(√n)] vertex-disjoint
    subtrees ("fragments") of height [O(√n)] — the [(√n+1, O(√n))]
    spanning forest of [KP98, Section 3.2].  The paper's footnote notes
    that this forest falls out of the Kutten–Peleg MST computation
    itself; accordingly the decomposition here is computed directly
    (one bottom-up pass) and the distributed round cost of this step is
    charged at the KP bound by the caller (see
    {!Mincut_core.Params}).

    Beyond the partition itself, this module precomputes the structures
    the rest of Section 2 keeps referring to:
    - the fragment tree [T_F] (contract each fragment to one node);
    - each fragment's root [rᵢ] (member closest to the root of [T]);
    - each fragment's id ([id(Fᵢ) = min member id], as in the paper);
    - per-node depth within its fragment (drives all "O(√n) because the
      fragment has O(√n) diameter" schedules). *)

type t = {
  tree : Mincut_graph.Tree.t;        (** the underlying rooted tree T *)
  target : int;                       (** height threshold used (≈ ⌈√n⌉) *)
  frag_of : int array;                (** node → fragment index *)
  roots : int array;                  (** fragment index → root node rᵢ *)
  members : int list array;           (** fragment index → member nodes *)
  ids : int array;                    (** fragment index → id(Fᵢ) *)
  frag_parent : int array;            (** T_F parent fragment; -1 at the top *)
  frag_children : int list array;     (** T_F children *)
  depth_in_frag : int array;          (** node → depth below its fragment root *)
  heights : int array;                (** fragment index → height of its subtree *)
}

val partition : Mincut_graph.Tree.t -> target:int -> t
(** Bottom-up partition closing a fragment whenever the pending subtree
    reaches height [target >= 1]. *)

val count : t -> int
(** Number of fragments (≤ n/target + 1). *)

val max_height : t -> int
(** Max fragment height (≤ target). *)

val check_invariants : t -> (string, string) result
(** Verifies the [(√n+1, O(√n))] contract and internal consistency;
    [Error] carries a description of the violated invariant.  Used by
    tests and by the F5 experiment. *)
