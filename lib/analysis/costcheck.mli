(** Span-tree invariant verifier for {!Mincut_congest.Cost} trees.

    The cost tree is the repo's accounting artifact: every round the
    algorithms claim is a span tagged with where the number came from
    ([Executed] | [Scheduled] | [Charged]).  This analyzer re-derives
    the laws the tree must satisfy and reports every breach:

    - {b executed-audit}: an [Executed] leaf carries an engine audit and
      its rounds equal the audit's rounds;
    - {b audit-provenance}: only executed leaves carry audits;
    - {b leaf-sum}: a group span's rounds equal its children's sum
      (except the zero-round ["(overlapped)"] marker under [Cost.par]);
    - {b audit-profile}: an audit's per-round congestion profile sums to
      its message total;
    - {b total}: the tree total equals the top-level span sum;
    - {b step-shape} (one-respect only): the top level is exactly the
      paper's five ["Step 1: "]…["Step 5: "] groups, in order, each with
      children;
    - {b formula} (one-respect only): every [Scheduled]/[Charged] leaf
      of the Theorem 2.1 tree equals its published closed form,
      recomputed from {!Mincut_core.One_respect.stats} and
      {!Mincut_core.Params}. *)

type error = {
  path : string;    (** "group / subgroup / leaf" span path *)
  law : string;     (** which invariant broke *)
  detail : string;  (** numbers involved *)
}

val check_tree : Mincut_congest.Cost.t -> error list
(** Structural laws only; applies to any cost tree in the repo. *)

val check_one_respect :
  ?params:Mincut_core.Params.t ->
  Mincut_core.One_respect.result ->
  error list
(** {!check_tree} plus the step-shape law and the formula laws over
    the result's own measured stats.  [params] must be the parameters
    the run used (they feed the KP-bound formula).  Also fails with a single {b formula-coverage}
    error when fewer than an expected floor of leaves match the label
    table — so a silent renaming of spans cannot make the formula check
    vacuous. *)

val describe : error -> string
