(** Empirical asymptotic fitter: does the measured cost actually grow
    like the claimed envelope?

    The paper's headline is Õ(√n + D) rounds with O(log n)-bit
    messages.  Unit tests pin exact round counts at fixed sizes; this
    analyzer checks the {e shape}: it runs the audited primitives and
    the one-respecting-cut algorithm over a seeded supercritical-gnp
    ladder (n = 2^k, diameter O(log n)) and, for each quantity, fits
    the measured value against its envelope.  The fit passes when the
    measured/envelope ratio stays flat across the ladder — within a
    multiplicative [slack] — so super-envelope growth (e.g. a primitive
    regressing to Θ(n) or payloads growing past c·log n) fails with a
    per-quantity report, while engine constants cancel out. *)

type point = { n : int; measured : float; envelope : float }

type fit = {
  quantity : string;
  envelope_name : string;  (** e.g. ["sqrt n + D"] *)
  points : point list;
  min_ratio : float;       (** min measured/envelope over the ladder *)
  max_ratio : float;
  ok : bool;               (** max_ratio ≤ slack · min_ratio *)
}

type report = { slack : float; fits : fit list; ok : bool }

val supercritical : seed:int -> int -> Mincut_graph.Graph.t
(** Seeded connected G(n, 8·ln n / n): the diameter-O(log n) family
    every n-sweep uses ([bench/workloads] delegates here). *)

val default_slack : float
(** 2.5 — wide enough for small-n noise, tight enough that one extra
    √n factor across a 16→128 ladder blows through it. *)

val run : ?quick:bool -> ?slack:float -> unit -> report
(** Fits four quantities: BFS rounds vs D+2, a √n-item upcast vs
    √n + D, one-respecting-cut rounds vs √n·log* n + D, and its max
    engine-audited payload vs log₂ n.  [quick] drops the largest ladder
    point (n = 128) for CI. *)

val to_json : report -> Mincut_util.Json.t

val describe : report -> string list
(** One line per fit, pass or fail. *)

(** {1 The large-n store ladder}

    The engine ladder tops out at n = 128 and lives in the
    supercritical-gnp (D = O(log n)) regime.  The chunked-store ladder
    covers the opposite corner: seeded √n × √n tori — D = Θ(√n), the
    regime where the paper's √n and D terms meet — streamed through
    {!Mincut_store.Bulk_loader} at sizes up to n > 10⁵ and traversed
    chunk-at-a-time under an eviction-forcing byte budget.  Measured
    quantities (chunked BFS rounds, the pipelined √n-item upcast, the
    fragment decomposition) fit against their envelopes directly; the
    full Theorem 2.1 pass, which cannot execute at that scale, enters as
    {!Mincut_core.Params.one_respect_charged_rounds} over the measured
    fragment geometry. *)

type store_sample = {
  st_n : int;  (** actual node count (rows · cols of the torus) *)
  st_dir : string;  (** store directory (reused as a cache across runs) *)
  st_chunk_bits : int;
  st_num_chunks : int;
  st_total_bytes : int;  (** resident footprint if fully loaded *)
  st_budget : int;  (** residency budget the sample ran under *)
  st_bfs_rounds : int;
  st_bfs_envelope : int;
  st_upcast_rounds : int;
  st_upcast_envelope : int;
  st_or_rounds : int;
  st_or_envelope : int;
  st_fragments : int;
  st_fragment_bound : int;  (** KP count contract: n/⌈√n⌉ + 1 *)
  st_frag_height : int;
  st_frag_height_envelope : int;  (** KP height contract: ⌈√n⌉ *)
  st_stats : Mincut_store.Residency.stats;
}

val default_scratch : string
(** ["_store"] — the gitignored scratch directory. *)

val store_ladder : quick:bool -> int list
(** Requested sizes: [256; 1024] quick, [4096; 32768; 131072] full
    (actual node counts are the nearest squares, ≥ the request). *)

val store_sample :
  ?instruments:Mincut_store.Residency.instruments ->
  seed:int ->
  int ->
  (store_sample, string) result
(** Build (or reuse — the content is deterministic per seed and
    geometry) the torus store for one ladder size, then measure every
    quantity under a budget of a quarter of the working set, so every
    whole-graph pass evicts. *)

val store_samples : ?quick:bool -> unit -> (store_sample list, string) result
(** The whole ladder; first failure aborts with its message. *)

val fit_store : ?slack:float -> store_sample list -> report
(** Four fits: chunked BFS vs D+2, the √n-item upcast vs √n + D, the
    charged Theorem 2.1 schedule vs √n·log* n + D, and the fragment
    height vs its ⌈√n⌉ target.  (The fragment {e count} sits anywhere
    below its bound depending on tree shape, so it is checked against
    the KP contract inside {!store_sample} — via
    [Fragments.check_invariants] — rather than fitted.) *)

val store_sample_to_json : store_sample -> Mincut_util.Json.t
