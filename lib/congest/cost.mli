(** Round-cost accounting as a provenance-tagged span tree.

    Every phase of the distributed algorithms returns a [Cost.t]: the
    number of synchronous rounds it needed, structured as a tree of
    {e spans} so the phase hierarchy of the paper (Section 2, Steps 1–5)
    survives into the accounting.  Each span carries a label, its round
    count, the provenance of that count, its sub-spans, and — for spans
    measured on the engine — the full {!Network.audit} of the run.

    The three provenances (DESIGN.md §2 and §10):
    - {!Executed} — a real message-passing program ran on {!Network} and
      the rounds were measured;
    - {!Scheduled} — an analytic pipelining schedule ({!Pipeline})
      evaluated on quantities measured from this very execution (real
      depths, item counts, per-edge loads);
    - {!Charged} — a published bound (e.g. the Kutten–Peleg MST round
      bound) charged without executing the subroutine.

    The derived flat view ({!breakdown}) recovers the historical
    [(label, rounds) list]: the leaves in execution order.  Group spans
    are structural only, so wrapping steps under phases never changes
    the flat view or the total. *)

type provenance =
  | Executed   (** measured on a real engine run *)
  | Scheduled  (** Pipeline formula on measured quantities *)
  | Charged    (** published bound, not executed *)

type span = {
  label : string;
  rounds : int;  (** total rounds of this span, including children *)
  provenance : provenance;
  children : span list;  (** sub-spans in execution order *)
  audit : Network.audit option;
      (** the engine audit, when this span was measured on {!Network} *)
}

type t = {
  rounds : int;  (** total rounds = sum of top-level span rounds *)
  spans : span list;  (** in execution order *)
}

val zero : t

val executed : ?audit:Network.audit -> string -> int -> t
(** A leaf measured on a real engine run; [audit] attaches the run's
    full engine audit.  Raises [Invalid_argument] on a negative round
    count (an explicit raise, so the check survives [-noassert]). *)

val scheduled : string -> int -> t
(** A leaf computed by an analytic {!Pipeline} schedule. *)

val charged : string -> int -> t
(** A leaf charged at a published bound. *)

val leaf_audit : t -> Network.audit option
(** The engine audit of a single-span cost (e.g. one built by
    {!executed}); [None] for anything else. *)

val group : string -> t -> t
(** [group label t] wraps [t]'s spans as children of a single new span;
    rounds and the flat {!breakdown} are unchanged.  Its provenance is
    derived from the children: any [Executed] leaf makes the group
    [Executed], else any [Scheduled] leaf (or no children at all) makes
    it [Scheduled], else [Charged]. *)

val ( ++ ) : t -> t -> t
(** Sequential composition: rounds add, span forests concatenate. *)

val sum : t list -> t

val breakdown : t -> (string * int) list
(** Derived flat view: the leaves in execution order.  This is the
    historical [(string * int) list] breakdown; grouping never changes
    it. *)

val provenance_name : provenance -> string
(** ["executed"] / ["scheduled"] / ["charged"] — the stable spelling
    used in JSON and in {!pp}'s provenance column. *)

val provenance_of_name : string -> provenance option
val provenance_equal : provenance -> provenance -> bool

val equal : t -> t -> bool
(** Deep structural equality: labels, rounds, provenance, children and
    attached audits all compared — the relation the replay conformance
    pass ([mincut_lint]) diffs against. *)

val pp : Format.formatter -> t -> unit
(** Tree rendering: a [total rounds: n] header, then one row per span
    with the round count, a provenance column and two-space indentation
    per tree level. *)

val to_json : t -> Mincut_util.Json.t
(** Spans serialize with [label]/[rounds]/[provenance] and, when
    present, [children] and [audit] members. *)

val of_json : Mincut_util.Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json t)] reconstructs a tree
    {!equal} to [t]. *)
