(** The finding every analyzer reports, its order, the allowlist that
    suppresses accepted findings ({!Allow}), and the human and JSON
    ([Mincut_util.Json]) reports. *)

type finding = {
  file : string;
  line : int;   (** 1-based *)
  col : int;    (** 0-based byte column of the offending token *)
  rule : string;
  message : string;
}

val compare_findings : finding -> finding -> int
(** Order by file, then line, then column. *)

(** Allowlist: suppressing accepted findings. *)
module Allow : sig
  type t

  val empty : t

  val load : known:(string -> bool) -> string -> (t, string) result
  (** Parse an allowlist file.  Each non-comment line is
      [rule path] or [rule path:line]; [path] matches a finding whose
      file path equals it or ends with ["/" ^ path].  [known] validates
      rule names ([mincut_lint] passes [Astlint.known_rule]). *)

  val of_lines : known:(string -> bool) -> string list -> (t, string) result

  val filter : t -> finding list -> finding list
  (** Drop allowlisted findings. *)

  val unused : t -> finding list -> string list
  (** Entries that matched nothing — stale suppressions worth deleting. *)
end

val to_json : finding list -> Mincut_util.Json.t
(** [{ "findings": [ {file, line, col, rule, message} ], "count": n }] *)

val pp_findings : Format.formatter -> finding list -> unit
(** Human-readable [file:line:col: rule: message] lines. *)
