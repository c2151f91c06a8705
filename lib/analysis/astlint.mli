(** Static analysis: the [mincut_lint ast] engine.

    Orchestrates the Parsetree analyzers over one shared parse and call
    graph: the hazard rules ({!hazards}), {!Effects.check}
    ([step-effect]), {!Allocheck.check} ([alloc-budget]),
    {!Domcheck.check} ([domain-race]), {!Exnflow.check} ([exn-escape])
    and {!Resguard.check} ([resource-leak]), plus a [parse-error]
    finding for each source the compiler's parser rejects.
    {!inject_seeds} carries self-contained defective modules CI injects
    to prove each analyzer still fires. *)

val rules : (string * string) list
(** [(rule-id, one-line description)] for every rule; the rule
    vocabulary of the allowlist. *)

val known_rule : string -> bool

val hazards : Srcread.source -> Lint.finding list
(** The determinism and CONGEST-model hazard rules over one parsed
    source:

    - {b poly-compare}: bare polymorphic [compare] / [Stdlib.compare].
      On [Graph.t], message types, or anything containing functions or
      abstract ids, structural comparison is at best
      representation-dependent and at worst raises — use the typed
      [Int.compare] / [Float.compare] / [List.compare] family.
    - {b poly-equal}: [Stdlib.( = )] passed as a first-class function
      (e.g. [List.mem ( = )] style) — same hazard as poly-compare.
    - {b hashtbl-hash}: [Hashtbl.hash] — its output varies across OCaml
      versions and flambda settings, which would break the FNV-1a
      cache-key guarantees of [Mincut_util.Hash].
    - {b unseeded-random}: any [Random.*] use.  All randomness must flow
      through the splittable, seeded [Mincut_util.Rng].
    - {b obj-magic}: [Obj.magic] and friends.
    - {b catchall-exn}: [try ... with _ ->] — swallows [Out_of_memory],
      [Stack_overflow] and every programming error alike; match the
      exceptions actually thrown.
    - {b bare-mutex}: direct [Mutex.create] outside [Lockcheck] — an
      unranked lock is invisible to the deadlock-order checker.
    - {b float-equal}: [( = )] comparing against a float literal
      (bindings and record initializers are not comparisons) — use
      [Float.equal] or an epsilon test.
    - {b list-nth}: [List.nth] — O(n) per access, quadratic in loops. *)

type report = {
  files : string list;
  parse_errors : Srcread.error list;
  hazard_findings : Lint.finding list;
  effect_findings : Lint.finding list;
  effect_classes : (string * int) list;  (** census: class name → defs *)
  alloc_targets : Allocheck.target list;
  alloc_findings : Lint.finding list;
  race_findings : Lint.finding list;
  exn_summary : Exnflow.summary;
  exn_findings : Lint.finding list;
  resource_summary : Resguard.summary;
  resource_findings : Lint.finding list;
}

val analyze : Srcread.source list * Srcread.error list -> report

val run : string list -> report
(** Parse every [.ml] under the paths and analyze. *)

val findings : report -> Lint.finding list
(** All findings including [parse-error], sorted by file/line/col. *)

val to_json : report -> Mincut_util.Json.t

val inject_seeds : (string * (string * string * string)) list
(** [seed → (pseudo-file, source, expected rule)] for the CI defect
    injections: ["nondet"], ["alloc"], ["race"], ["exnleak"],
    ["fdleak"]. *)

val run_inject : seed:string -> string list -> (report * string, string) result
(** Analyze the paths with the seed's pseudo-module appended; returns
    the report and the rule the seed must trigger. *)
