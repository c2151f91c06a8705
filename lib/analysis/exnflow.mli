(** Interprocedural may-raise inference and boundary policies.

    Every def gets a raise set — the exception constructors its body
    may let escape, ["?"] standing for one the analysis cannot name —
    inferred structurally ([raise]/[failwith]/[assert], a curated
    raising-externals table, resolved callee sets) with [try]/[match
    ... with exception] handlers subtracting what they match, and
    propagated to a fixpoint.  [[@mincut.raises "A,B"]] pins a def's
    complete set ([""] pins empty); pinned defs neither infer nor
    inherit.  The implicit [Invalid_argument] of bounds checks is
    deliberately out of scope (the protocol fuzz test is the dynamic
    complement).

    The enforced boundary policies (rule [exn-escape]):
    [serve-total] — [Server.handle_command]/[Server.run] raise nothing;
    [pool-no-leak] — the pool's domain bodies raise nothing;
    [store-typed] — [Store_error] never escapes [lib/store].
    [[@mincut.boundary "<policy>"]] adds a root; unknown policy names
    are findings.  Findings land at the intrinsic raise site with a
    call-chain witness, in the style of {!Effects}. *)

val external_raises : string -> string list
(** Exceptions one unresolved ([Stdlib.]-stripped) name may raise,
    per the curated table; [[]] for anything unlisted. *)

val raise_sets : Callgraph.t -> (string * string list) list
(** Every def's raise set, as sorted constructor names, in
    {!Callgraph.defs_in_order} order. *)

val policy_names : string list

val policy_roots : Callgraph.t -> (string * string list) list
(** Roots of the empty-set policies, in deterministic def order. *)

type summary = {
  defs_raising : int;  (** defs with a non-empty inferred raise set *)
  policies : (string * int) list;  (** policy -> enforced root/def count *)
}

val check : Callgraph.t -> summary * Lint.finding list
