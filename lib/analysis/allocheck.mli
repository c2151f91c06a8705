(** Hot-path allocation lint ([alloc-budget]).

    Counts syntactic allocation sites — closures, tuples, records, list
    conses, array/lazy literals, partial applications of known defs,
    and non-error-path [Printf]/[Format] calls — in the two places the
    per-round cost lives: the round loop(s) inside [Network.drive] and
    every CONGEST step handler (program-literal [step] fields).  Each
    target has a budget (calibrated with headroom against the shipped
    tree; [minor_words_per_run] in BENCH_sim.json is the dynamic ground
    truth) and going over is a finding. *)

type site_kind =
  | Closure
  | Tuple
  | Record
  | Cons
  | Array_lit
  | Lazy_block
  | Partial
  | Printf_call

val site_kind_name : site_kind -> string

type site = { skind : site_kind; sline : int; scol : int }

type target = {
  tid : string;
  tfile : string;
  tline : int;
  budget : int;
  sites : site list;
}

val default_step_budget : int
val default_loop_budget : int

val by_kind : site list -> (string * int) list
(** Site counts keyed by kind name, first-seen order. *)

val targets : Callgraph.t -> target list
(** All budget targets with their counted sites. *)

val check : Callgraph.t -> target list * Lint.finding list
(** Targets plus one finding per over-budget target. *)
