(** Plain-text graph serialization.

    Format (a light DIMACS dialect):
    {v
    c optional comment lines
    p <n> <m>
    e <u> <v> <w>     (m lines, 0-based endpoints)
    v}
    Used by the CLI so experiments can be re-run on saved workloads. *)

val write : out_channel -> Graph.t -> unit

val read : in_channel -> Graph.t
(** Raises [Failure] with a line-numbered message on malformed input,
    and on a [p] line whose node count is below 1 or above
    {!Graph.max_nodes}, or whose edge count is negative. *)

val to_string : Graph.t -> string

val of_string : string -> Graph.t

val save : string -> Graph.t -> unit
(** Write to a file path. *)

val load : string -> Graph.t
(** Read from a file path. *)
