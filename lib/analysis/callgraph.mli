(** Approximate intra-repo call graph over parsed sources.

    Defs are top-level (and nested-module top-level) value bindings,
    keyed by qualified id ["Mincut_congest.Primitives.bfs_program"].
    Each def carries every value identifier its body references (with
    position and two context bits: inside a [Pool.map] task argument,
    inside a [Lockcheck.with_lock] argument), its CONGEST
    program literals (records with both [initial] and [step] fields),
    and an optional [[@mincut.effect "<class>"]] override.  Top-level
    mutable-state makers ([ref], [Hashtbl.create], ...) also register as
    globals for {!Domcheck}.

    Resolution is name-based and approximate: aliases are expanded,
    unqualified names climb the enclosing module path, and qualified
    names match by exact id, then by unique dotted suffix (or unique
    within the caller's library).  Unresolved names are externals,
    classified by {!Effects}. *)

type global_kind = Ref | Table | Array_cell | Buffer | Atomic | Dls

val global_kind_name : global_kind -> string

type global = { gid : string; gkind : global_kind; gfile : string; gline : int }

type refsite = {
  name : string;
  rline : int;
  rcol : int;
  in_task : bool;  (** inside a [Pool.map] argument *)
  guarded : bool;  (** inside a [Lockcheck.with_lock] argument *)
}

type def = {
  id : string;
  file : string;
  line : int;
  arity : int;  (** leading syntactic parameters; 0 for plain values *)
  refs : refsite list;
  mutates : bool;  (** body contains a [<-] field/element write *)
  programs : (int * Parsetree.expression) list;
      (** CONGEST program literals: (line, [step] field body) *)
  effect_annot : string option;
  raises_annot : string option;
      (** [[@mincut.raises "A,B"]] pin: the complete raise set of the
          binding, overriding inference; [""] pins the empty set. *)
  boundary_annot : string option;
      (** [[@mincut.boundary "<policy>"]]: the binding is a root of the
          named {!Exnflow} boundary policy. *)
  body : Parsetree.expression;
}

type t

val build : Srcread.source list -> t

val find_def : t -> string -> def option
val find_global : t -> string -> global option
val defs_in_order : t -> def list
(** All defs in (file, line) collection order — deterministic output. *)

val resolve : t -> from:def -> string -> string option
(** Resolve a referenced name to a def or global id, or [None] for
    externals/locals. *)

val callees : t -> def -> (string * refsite) list
(** Resolved def→def edges with the reference site of each, in source
    order.  Resolution runs once, in {!build}; this is a lookup. *)

val reachable : t -> roots:string list -> (string, string list) Hashtbl.t
(** BFS closure; each reached id maps to a witness chain (root first,
    the id itself last). *)

val solve :
  t ->
  bottom:'a ->
  pinned:(def -> 'a option) ->
  transfer:(def -> (string -> 'a) -> 'a) ->
  equal:('a -> 'a -> bool) ->
  (string, 'a) Hashtbl.t
(** The one fixpoint engine of the call-graph analyses.  A def starts
    at [pinned d] (kept for good) or at [bottom].  A FIFO worklist,
    seeded with the unpinned defs in {!defs_in_order} order, sets a
    def to [transfer d value] — [value] reads any def's current value —
    and requeues its callers (latest caller first) whenever the result
    is not [equal] to the stored value.  [transfer] must be monotone in
    the part [equal] compares.  Whatever [equal] ignores (a callee
    link, a witness site) is kept from the value first stored with the
    current compared part, so the seed order decides the links, and
    with them every witness. *)

val chain : link:(string -> string option) -> string -> string list * string
(** [chain ~link root] is the witness rule: follow each def's recorded
    "came through callee X" link from [root] until a def with no link —
    its own site is the witness — or a def already on the chain.
    Returns the chain, root first, and its last def. *)
