(* Parsetree front end for the static analyzers.

   Gives the analyzers ([Astlint.hazards], [Callgraph], [Effects],
   [Allocheck], [Domcheck]) real syntax: every [.ml] under the requested
   roots is parsed with the compiler's own parser
   ([compiler-libs.common]), so scope, calls, record literals and
   attributes are visible.  Interfaces ([.mli]) are deliberately out of
   scope — they declare no behaviour. *)

type source = {
  file : string;  (** path as given on the command line *)
  modpath : string;
      (** qualified module path, e.g. ["Mincut_congest.Primitives"]:
          library wrapper (derived from the [lib/<dir>] layout) plus the
          capitalized basename; bare basename outside [lib/] *)
  ast : Parsetree.structure;
}

type error = { efile : string; eline : int; ecol : int; reason : string }

(* ---- locations and longidents ----------------------------------------- *)

let lc (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* [Longident.flatten] is fatal on functor applications; this one just
   keeps the functor path, which is the right approximation here. *)
let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply (l, _) -> flatten l

let name_of lid = String.concat "." (flatten lid)

let strip_stdlib name =
  if String.length name > 7 && String.starts_with ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

let has_suffix ~suffix name =
  name = suffix || String.ends_with ~suffix:("." ^ suffix) name

(* ---- shared syntax shapes ---------------------------------------------- *)

(* the identifier an application's function position names, looking
   through type constraints *)
let rec head_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (name_of txt)
  | Pexp_constraint (e, _) -> head_name e
  | _ -> None

(* every variable a pattern binds, left to right *)
let binding_names (p : Parsetree.pattern) =
  let names = ref [] in
  let pat (it : Ast_iterator.iterator) (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> names := txt :: !names
    | _ -> Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  pat it p;
  List.rev !names

(* ---- module paths ------------------------------------------------------ *)

let capitalize_basename file =
  Filename.basename file |> Filename.remove_extension |> String.capitalize_ascii

(* lib/<dir>/foo.ml lives in wrapped library Mincut_<dir>, so its
   compilation unit is addressable as Mincut_<dir>.Foo — match that so
   cross-library references resolve.  Anything else (bin/, injected
   sources) is addressed by its bare module name. *)
let modpath_of_file file =
  let base = capitalize_basename file in
  let parts = String.split_on_char '/' file in
  let rec wrapper = function
    | "lib" :: dir :: _ :: _ -> Some ("Mincut_" ^ dir)
    | _ :: rest -> wrapper rest
    | [] -> None
  in
  match wrapper parts with Some w -> w ^ "." ^ base | None -> base

(* ---- parsing ----------------------------------------------------------- *)

let parse_string ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | ast -> Ok { file; modpath = modpath_of_file file; ast }
  | exception Syntaxerr.Error err ->
      let eline, ecol = lc (Syntaxerr.location_of_error err) in
      Error { efile = file; eline; ecol; reason = "syntax error" }
  | exception e ->
      let eline, ecol =
        match Location.error_of_exn e with
        | Some (`Ok err) -> lc err.Location.main.Location.loc
        | _ -> (1, 0)
      in
      Error { efile = file; eline; ecol; reason = Printexc.to_string e }

let parse_file path =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse_string ~file:path src

(* skip _build and dot-directories *)
let rec walk acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || (String.length entry > 0 && entry.[0] = '.') then
          acc
        else walk acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let load_paths paths =
  let files = List.fold_left walk [] paths |> List.sort String.compare in
  List.fold_left
    (fun (sources, errors) file ->
      match parse_file file with
      | Ok s -> (s :: sources, errors)
      | Error e -> (sources, e :: errors))
    ([], []) files
  |> fun (sources, errors) -> (List.rev sources, List.rev errors)
