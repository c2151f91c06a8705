(* Shared pieces of the four workloads: the outcome record every run
   returns, seeded generators, the closed-loop clock and reply parsing. *)

module Rng = Mincut_util.Rng
module Graph = Mincut_graph.Graph

(* Every workload replays a fixed cycle of items over and over: a solve
   pass, a serve-mix pass on a fresh service, a set of session-churn
   passes each on a fresh service.  Item i of the cycle is the same work
   each time it runs.  Each op's time is scaled to the reference speed
   of [Pace], and an item's typical time is the median of its scaled
   repeats; the timing figures of a run are computed from those. *)
type outcome = {
  attempted : int;
  failures : string list;  (** one message per failed op or failed check *)
  timed_ops : int;  (** ops the untraced loop timed *)
  latency_ms : float array;
      (** per item of the cycle, its typical latency over the run: from
          the op's first call or line to its last reply *)
  busy_ms : float array;
      (** per item, its typical busy time: the latency plus the
          program's work after the last reply, before it asked for the
          next op (server workloads; the latency for solves) *)
  slowdown : float;
      (** the run's median pace-kernel time ÷ [Pace.reference_ms]: how
          slow the host ran *)
  rounds : float;
      (** total simulated CONGEST rounds over the answered solves of the
          workload's reference set: ops made from [reference_seed]
          whatever the run's seed, so the count is the same on every
          run and every host until the algorithm's accounting changes *)
  setup_s : float;
  peak_rss_kb : int;  (** VmHWM read right after the untraced loop *)
  layers : (string * float) list;  (** per-layer metrics, traced runs only *)
  digest : string;  (** digest of the generated inputs *)
}

let now = Trace.now

(* one reproducible generator per (seed, stream, item): inputs depend on
   the seed and the item's position only, never on what ran before *)
let item_rng ~seed ~stream i =
  Rng.create ((seed * 1_000_003) + (stream * 65_537) + i)

(* random node labels and edge order: the deterministic families differ
   per seed, and no construction order leaks into the packing's
   edge-id tie-breaks *)
let scramble rng g =
  let n = Graph.n g in
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let es =
    Array.map
      (fun (e : Graph.edge) -> (perm.(e.Graph.u), perm.(e.Graph.v), e.Graph.w))
      (Graph.edges g)
  in
  Rng.shuffle rng es;
  Graph.of_array ~n es

(* The set-up of a run, timed [reps] times from a collected heap and
   scaled to the reference speed; the median is reported and the last
   result kept. *)
let timed_setup ~reps f =
  let times = Array.make reps 0.0 in
  let last = ref None in
  for i = 0 to reps - 1 do
    Gc.full_major ();
    let s, v = Pace.timed f in
    last := Some v;
    times.(i) <- s
  done;
  (Mincut_util.Stats.percentile times 0.5, Option.get !last)

let setup_reps = 9

(* the default seed; the reference set of [congest_rounds] is made
   from it on every run *)
let reference_seed = 1

(* every untraced run replays its cycle at least [min_cycles] times, so
   each item has that many samples or more to take the median of *)
let min_cycles = 3

(* a closed loop stops once both the time budget and the op floor are
   met *)
let keep_going ~t0 ~seconds ~min_ops ops = ops < min_ops || now () -. t0 < seconds

(* [typical ~items samples]: per item, the median latency and the
   median busy time over its samples [(item, latency_ms, busy_ms)],
   skipping the NaN of an op that got no complete answer (a failure
   counted elsewhere); every item must have a sample *)
let typical ~items samples =
  let lat = Array.make items [] and busy = Array.make items [] in
  List.iter
    (fun (i, l, b) ->
      if not (Float.is_nan l) then begin
        lat.(i) <- l :: lat.(i);
        busy.(i) <- b :: busy.(i)
      end)
    samples;
  let median xs =
    if xs = [] then invalid_arg "Common.typical: an item of the cycle was never timed";
    Mincut_util.Stats.percentile (Array.of_list xs) 0.5
  in
  (Array.map median lat, Array.map median busy)

let peak_rss_kb () = Option.value (Mincut_util.Stats.peak_rss_kb ()) ~default:0

let digest_strings items =
  let h = Mincut_util.Hash.create () in
  Array.iter (Mincut_util.Hash.add_string h) items;
  Mincut_util.Hash.to_hex (Mincut_util.Hash.value h)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ---- reply lines --------------------------------------------------- *)

(* value of a [key=value] token of a reply line *)
let field line key =
  let prefix = key ^ "=" in
  let k = String.length prefix in
  String.split_on_char ' ' line
  |> List.find_map (fun tok ->
         if String.length tok > k && String.sub tok 0 k = prefix then
           Some (String.sub tok k (String.length tok - k))
         else None)

let int_field line key = Option.bind (field line key) int_of_string_opt

(* a reply with its wall-clock [ms=] token removed: what the traced
   shadow must reproduce bit for bit *)
let strip_ms line =
  String.split_on_char ' ' line
  |> List.filter (fun tok -> not (String.length tok > 3 && String.sub tok 0 3 = "ms="))
  |> String.concat " "

let is_ok line = String.length line >= 3 && String.sub line 0 3 = "OK "

(* ---- per-layer aggregation ----------------------------------------- *)

(* [ms]/[calls]/[mwords] per op for each named span, plus coverage:
   the share of traced op time that some span covers *)
let layer_metrics ~ops ~traced_ms spans names =
  let tbl = Trace.by_name spans in
  let per_op x = x /. float_of_int (max 1 ops) in
  let get name = Hashtbl.find_opt tbl name in
  let sum f name = Option.fold ~none:0.0 ~some:f (get name) in
  List.concat_map
    (fun (name, kinds) ->
      List.map
        (fun kind ->
          let v =
            match kind with
            | `Ms -> per_op (sum (fun l -> l.Trace.ms) name)
            | `Calls -> per_op (sum (fun l -> float_of_int l.Trace.calls) name)
            | `Mwords -> per_op (sum (fun l -> l.Trace.mwords) name)
          in
          let suffix =
            match kind with `Ms -> "ms" | `Calls -> "calls" | `Mwords -> "mwords"
          in
          (name ^ "." ^ suffix, v))
        kinds)
    names
  @ [ ("trace.coverage_frac", Trace.total_self_ms spans /. traced_ms) ]

let median xs = if xs = [||] then 0.0 else Mincut_util.Stats.percentile xs 0.5

let overhead ~untraced ~traced =
  ("trace.overhead_frac", (median traced /. median untraced) -. 1.0)

(* GC work inside timed ops: minor words allocated and major cycles
   completed *)
type gc_work = { words : float; majors : int }

let gc_mark () = { words = Gc.minor_words (); majors = (Gc.quick_stat ()).Gc.major_collections }

let gc_since m =
  let n = gc_mark () in
  { words = n.words -. m.words; majors = n.majors - m.majors }

let gc_layers works =
  let ops = float_of_int (max 1 (Array.length works)) in
  [
    ("gc.minor_mwords_per_op", Array.fold_left (fun acc w -> acc +. w.words) 0.0 works /. 1e6 /. ops);
    ( "gc.major_collections_per_op",
      float_of_int (Array.fold_left (fun acc w -> acc + w.majors) 0 works) /. ops );
  ]
