(** Effect-class inference: the static complement of {!Sanitize}.

    Every def gets a class in the lattice [Pure < Det_stateful <
    Global_mutable < Clock_random_io], intrinsically from its body
    (externals table, global accesses, mutation syntax) and propagated
    as a max over resolved callees to a fixpoint.  The enforced rule
    ([step-effect]): everything reachable from a CONGEST step handler —
    program-literal defs plus all of [lib/congest/primitives.ml] and
    [lib/congest/pipeline.ml] — must sit in the two deterministic
    classes.  [[@mincut.effect "<class>"]] pins a def's class where
    inference is too coarse; annotated defs do not inherit from
    callees, and unknown annotation strings are themselves findings. *)

type cls = Pure | Det_stateful | Global_mutable | Clock_random_io

val rank : cls -> int
val cls_name : cls -> string
val cls_of_name : string -> cls option
val deterministic : cls -> bool

val classify_external : string -> cls
(** Table classification of one unresolved ([Stdlib.]-stripped) name;
    defaults to [Pure]. *)

type culprit = {
  cname : string;
  cfile : string;
  cline : int;
  ccol : int;
  creason : string;
}

type info = { cls : cls; culprit : culprit option }

val classify : Callgraph.t -> (string, info) Hashtbl.t
(** Fixpoint classification of every def. *)

val roots : Callgraph.t -> string list
(** The enforced roots, in deterministic order. *)

val check : Callgraph.t -> Lint.finding list
(** [step-effect] findings: each non-deterministic root reported at the
    nearest offending reference with its witness call chain. *)
