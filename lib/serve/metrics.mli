(** Metrics registry for the serving layer.

    Three instrument kinds, all registered by name on first use:

    - {e counters}: monotone integer totals (requests submitted,
      completed, cache hits/misses, CONGEST rounds charged, …);
    - {e gauges}: instantaneous floats (cache residency, queue depth);
    - {e histograms}: latency-style samples summarized as count / mean /
      quantiles (p50, p90, p99) / max.  Histograms keep an exact count,
      sum and max forever and bound memory by reservoir-sampling the
      stored values past a fixed capacity, with a deterministic RNG so
      runs are reproducible.

    Snapshots are immutable and serializable as single JSON lines, which
    both the [STATS] protocol verb and [mincut_cli stats] consume.

    The registry is safe to record into from any domain: counters and
    gauges are single atomic cells, histograms and the name tables are
    guarded by ranked {!Mincut_parallel.Lockcheck} mutexes (registry =
    rank 30, each histogram = rank 31) so the lock-discipline checker
    audits every acquisition at test time. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get or create.  The same name always returns the same instrument. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type hist_summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

type snapshot = {
  time : float;  (** Unix timestamp at capture *)
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}
(** All association lists are sorted by name, so snapshots of equal
    registries are structurally equal. *)

val snapshot : t -> snapshot

val to_json : snapshot -> Mincut_util.Json.t
val of_json : Mincut_util.Json.t -> (snapshot, string) result

val to_json_line : t -> string
(** One-line JSON export of a fresh snapshot (the JSONL exporter appends
    these to a log). *)

val snapshot_of_json_line : string -> (snapshot, string) result

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Pretty terminal rendering (the [mincut_cli stats] view). *)
