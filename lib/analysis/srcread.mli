(** Parsetree front end for the static analyzers.

    Parses every [.ml] under the requested roots with the compiler's own
    parser ([compiler-libs.common]) and assigns each compilation unit
    the qualified module path its wrapped dune library gives it
    ([lib/congest/primitives.ml] → ["Mincut_congest.Primitives"]), so
    the downstream call-graph resolution can match cross-library
    references.  [.mli] files are out of scope: they hold no
    expressions for any rule to check. *)

type source = {
  file : string;
  modpath : string;
  ast : Parsetree.structure;
}

type error = { efile : string; eline : int; ecol : int; reason : string }

val parse_string : file:string -> string -> (source, error) result
(** Parse one in-memory source.  Errors carry 1-based line and 0-based
    column of the failure, matching {!Lint.finding} conventions. *)

val parse_file : string -> (source, error) result

val load_paths : string list -> source list * error list
(** Walk files and directories (skipping [_build] and dotdirs), parse
    every [.ml], and partition into parsed sources (sorted by file) and
    parse errors. *)

val modpath_of_file : string -> string

val lc : Location.t -> int * int
(** [loc_start] of a location as (1-based line, 0-based column). *)

val flatten : Longident.t -> string list
(** Like [Longident.flatten] but total: functor applications keep the
    functor path instead of raising. *)

val name_of : Longident.t -> string
(** Dotted rendering of {!flatten}. *)

val strip_stdlib : string -> string

val has_suffix : suffix:string -> string -> bool
(** [has_suffix ~suffix:"Pool.map" "Mincut_parallel.Pool.map"] is true:
    equality or a ["."]-preceded dotted-path suffix. *)

val head_name : Parsetree.expression -> string option
(** The dotted identifier in an application's function position,
    looking through type constraints; [None] for any other shape. *)

val binding_names : Parsetree.pattern -> string list
(** Every variable a pattern binds, left to right. *)
