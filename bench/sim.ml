(* sim — CONGEST engine hot-path benchmark.

   Two questions, one artifact (BENCH_sim.json; BENCH_sim_quick.json in
   --quick):

   1. How much faster is the flat-array driver ({!Mincut_congest.Network})
      than the seed driver preserved as {!Mincut_congest.Network_reference}?
      Both execute the same BFS flooding program on the certifier's
      workloads; audits must agree exactly (the bench fails otherwise),
      and the artifact records rounds/sec, messages/sec and minor-heap
      words per run for each driver.

   2. Does the domain fan-out pay for itself without changing answers?
      The exact pipeline runs with workers=1 and workers=4; summaries
      must be bit-identical (value, side, rounds, breakdown) — that
      equality is asserted here and in CI's quick mode. *)

module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Rng = Mincut_util.Rng
module Json = Mincut_util.Json
module Stats = Mincut_util.Stats
module Network = Mincut_congest.Network
module Reference = Mincut_congest.Network_reference
module Primitives = Mincut_congest.Primitives
module Replay = Mincut_analysis.Replay
module Scaling = Mincut_analysis.Scaling
module Api = Mincut_core.Api
module Params = Mincut_core.Params
module Cost = Mincut_congest.Cost
module Residency = Mincut_store.Residency
module Pool = Mincut_parallel.Pool
module Metrics = Mincut_serve.Metrics
module Store_metrics = Mincut_serve.Store_metrics

(* CI smoke mode: fewer iterations, same assertions. *)
let quick = ref false

(* The certifier's conformance workloads. *)
let workloads = Mincut_analysis.Certify.workloads

(* Wall time (ms) and minor-heap words for [iters] runs of [f]. *)
let measure ~iters f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let words = Gc.minor_words () -. w0 in
  (ms, words /. float_of_int iters)

(* Allocation-diet gate for the flat driver: a budget on minor-heap
   words per run, derived from the workload's own audit rather than
   hardcoded per workload, so new replay workloads are covered the day
   they are added.  The coefficients were fitted to the scratch-reusing
   driver (roughly 34 words/message for the payload conses and delivery,
   70 words/round of loop overhead, ~350 fixed) with 10–17% headroom —
   tight enough that the pre-diet driver (which consed a per-round count
   list and rebuilt closures every round: 3049/4153/7047 words on
   torus4/grid5/gnp24) fails all three workloads. *)
let minor_words_budget (audit : Network.audit) =
  350.0
  +. (34.0 *. float_of_int audit.Network.total_messages)
  +. (70.0 *. float_of_int audit.Network.rounds)

let driver_stats name ~iters ~(audit : Network.audit) (ms, words_per_run) =
  let secs = ms /. 1000.0 in
  let runs = float_of_int iters in
  ( name,
    Json.Obj
      [
        ("ms_total", Json.Float ms);
        ("rounds_per_sec", Json.Float (float_of_int audit.Network.rounds *. runs /. secs));
        ("messages_per_sec", Json.Float (float_of_int audit.Network.total_messages *. runs /. secs));
        ("minor_words_per_run", Json.Float words_per_run);
      ],
    ms )

let bench_drivers ~iters (wname, g) =
  let prog = Primitives.bfs_program g ~root:0 in
  let flat () = snd (Network.run ~words:(fun _ -> 1) g prog) in
  let reference () = snd (Reference.run ~words:(fun _ -> 1) g prog) in
  let a_flat = flat () and a_ref = reference () in
  (match Replay.diff_audits a_flat a_ref with
  | [] -> ()
  | diffs ->
      failwith
        (Printf.sprintf "sim: driver audits diverge on %s: %s" wname
           (String.concat "; " diffs)));
  let flat_ms_words = measure ~iters flat in
  let name, obj, flat_ms = driver_stats "flat" ~iters ~audit:a_flat flat_ms_words in
  let rname, robj, ref_ms =
    driver_stats "reference" ~iters ~audit:a_ref (measure ~iters reference)
  in
  let words_budget = minor_words_budget a_flat in
  let flat_words = snd flat_ms_words in
  if flat_words > words_budget then
    failwith
      (Printf.sprintf
         "sim: flat driver allocation regression on %s: %.0f minor words per \
          run exceeds the %.0f-word budget (34/message + 70/round + 350)"
         wname flat_words words_budget);
  let speedup = ref_ms /. flat_ms in
  Printf.printf
    "  %-7s n=%-3d m=%-3d rounds=%-3d msgs=%-4d  flat %.1f ms, reference %.1f ms  => %.2fx\n%!"
    wname (Graph.n g) (Graph.m g) a_flat.Network.rounds a_flat.Network.total_messages
    flat_ms ref_ms speedup;
  ( wname,
    speedup,
    Json.Obj
      [
        ("workload", Json.String wname);
        ("n", Json.Int (Graph.n g));
        ("m", Json.Int (Graph.m g));
        ("rounds", Json.Int a_flat.Network.rounds);
        ("messages", Json.Int a_flat.Network.total_messages);
        ("iterations", Json.Int iters);
        (name, obj);
        (rname, robj);
        ("minor_words_budget", Json.Float words_budget);
        ("speedup_flat_over_reference", Json.Float speedup);
        ("audits_equal", Json.Bool true);
      ] )

(* The workload must be large enough for the pool to pay: each solve
   is a full-fidelity exact run (every per-tree Theorem 2.1 sweep on
   the engine) of a 12×12 torus, so the sequential side of even the
   quick mode's 4 solves is well over 100 ms, against the pool's
   sub-millisecond batch overhead. *)
let parallel_workload = ("torus12", Generators.torus 12 12)

let bench_parallel ~solves (name, g) =
  let solve workers =
    Array.init solves (fun i ->
        Api.min_cut ~params:Params.default ~algorithm:Api.Exact_small_lambda
          ~seed:i ~workers g)
  in
  (* both sides get the same three timed passes and keep the fastest:
     the first sequential pass pays the cold heap, the first parallel
     pass pays the domain spawns, and a pass that shared its cores with
     a neighbour's burst of work loses to one that did not.  The passes
     alternate sides, so a change in the shared host's load skews
     neither side. *)
  let pass workers =
    let t0 = Unix.gettimeofday () in
    let r = solve workers in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let stats0 = Pool.stats () in
  let seq, seq_ms1 = pass 1 in
  let par, par_ms1 = pass 4 in
  let seq2, seq_ms2 = pass 1 in
  let par2, par_ms2 = pass 4 in
  let _, seq_ms3 = pass 1 in
  let _, par_ms3 = pass 4 in
  let seq_ms = Float.min seq_ms1 (Float.min seq_ms2 seq_ms3)
  and par_ms = Float.min par_ms1 (Float.min par_ms2 par_ms3) in
  let stats1 = Pool.stats () in
  let identical =
    let same a b = Replay.diff_summary a b = [] in
    Array.for_all2 same seq par
    && Array.for_all2 same seq seq2
    && Array.for_all2 same seq par2
  in
  if not identical then
    failwith "sim: parallel exact pipeline diverged from sequential";
  (* the pool is persistent: every workers=4 pass after the first must
     reuse the domains the first one spawned, and the passes together
     ran every per-tree job through the counted entry point *)
  let spawned = stats1.Pool.spawns - stats0.Pool.spawns in
  if spawned > 3 then
    failwith
      (Printf.sprintf
         "sim: pool spawned %d domains for three workers=4 passes; a \
          persistent pool spawns at most 3 and reuses them"
         spawned);
  if stats1.Pool.tasks <= stats0.Pool.tasks then
    failwith "sim: pool task counter did not advance across the solves";
  let speedup = seq_ms /. par_ms in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf
    "  parallel exact: %d solves of %s, workers 1: %.1f ms, workers 4: \
     %.1f ms => %.2fx, bit-identical=%b (host cores: %d)\n%!"
    solves name seq_ms par_ms speedup identical host_cores;
  Printf.printf
    "  pool: %d domains spawned this bench, %d tasks, %d steals, %d \
     batches (process totals: %d spawns)\n%!"
    spawned
    (stats1.Pool.tasks - stats0.Pool.tasks)
    (stats1.Pool.steals - stats0.Pool.steals)
    (stats1.Pool.batches - stats0.Pool.batches)
    stats1.Pool.spawns;
  (* the speedup gate is only a statement about parallel hardware; a
     1-core host measures scheduling overhead, so it skips with a
     reason instead of failing *)
  if host_cores > 1 then begin
    if speedup < 1.0 then
      failwith
        (Printf.sprintf
           "sim: parallelism does not pay on a %d-core host: workers=4 ran \
            %.2fx the speed of workers=1 (gate: >= 1.0)"
           host_cores speedup)
  end
  else
    Printf.printf
      "  SKIP speedup gate: host reports 1 core; speedup_par_over_seq \
       measures scheduling overhead, not parallelism\n%!";
  Json.Obj
    [
      ("workload", Json.String name);
      ("solves", Json.Int solves);
      ("workers_parallel", Json.Int 4);
      ("seq_ms", Json.Float seq_ms);
      ("par_ms", Json.Float par_ms);
      ("speedup_par_over_seq", Json.Float speedup);
      ("speedup_meaningful", Json.Bool (host_cores > 1));
      ("bit_identical", Json.Bool identical);
      ("host_cores", Json.Int host_cores);
      ( "pool",
        Json.Obj
          [
            ("spawns", Json.Int spawned);
            ("tasks", Json.Int (stats1.Pool.tasks - stats0.Pool.tasks));
            ("steals", Json.Int (stats1.Pool.steals - stats0.Pool.steals));
            ("batches", Json.Int (stats1.Pool.batches - stats0.Pool.batches));
            ("spawns_process_total", Json.Int stats1.Pool.spawns);
          ] );
    ]

(* The chunked-store n-ladder: stream-generate torus stores (up to
   n > 10⁵ in full mode), traverse them chunk-at-a-time under a
   quarter-working-set budget, and record both the scale measurements
   and the residency counters.  Instruments go through the serving
   layer's Metrics registry, so the artifact also proves the
   store→Metrics export path end to end.  Every point must evict — a
   fully-resident "ladder" measures nothing about the store. *)
let bench_store_ladder () =
  let registry = Metrics.create () in
  let instruments = Store_metrics.instruments registry in
  let sizes = Scaling.store_ladder ~quick:!quick in
  Printf.printf "sim: chunked-store scale ladder (%s, scratch %s)\n%!"
    (if !quick then "quick" else "full")
    Scaling.default_scratch;
  let points =
    List.map
      (fun nreq ->
        let t0 = Unix.gettimeofday () in
        match Scaling.store_sample ~instruments ~seed:9000 nreq with
        | Error e -> failwith (Printf.sprintf "sim: store ladder n=%d: %s" nreq e)
        | Ok s ->
            let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
            (* process-wide high-water mark sampled after the point: a
               ladder rung whose eviction counts hold the working set
               down must not be growing this monotone curve either *)
            let rss = Stats.peak_rss_kb () in
            let st = s.Scaling.st_stats in
            if st.Residency.evictions = 0 then
              failwith
                (Printf.sprintf
                   "sim: store ladder n=%d: no evictions under a \
                    quarter-working-set budget"
                   s.Scaling.st_n);
            Printf.printf
              "  n=%-7d chunks=%-3d bfs=%-4d upcast=%-4d charged=%-7d \
               frags=%-4d  hits=%d misses=%d evictions=%d resident=%d/%dB  \
               (%.0f ms, peak rss %s)\n%!"
              s.Scaling.st_n s.Scaling.st_num_chunks s.Scaling.st_bfs_rounds
              s.Scaling.st_upcast_rounds s.Scaling.st_or_rounds
              s.Scaling.st_fragments st.Residency.hits st.Residency.misses
              st.Residency.evictions st.Residency.bytes_resident
              st.Residency.budget ms
              (match rss with
              | Some kb -> Printf.sprintf "%d kB" kb
              | None -> "n/a");
            (s, ms, rss))
      sizes
  in
  if
    (not !quick)
    && not (List.exists (fun (s, _, _) -> s.Scaling.st_n >= 100_000) points)
  then failwith "sim: full store ladder is missing its n >= 1e5 point";
  let report = Scaling.fit_store (List.map (fun (s, _, _) -> s) points) in
  List.iter (fun line -> Printf.printf "  %s\n%!" line) (Scaling.describe report);
  if not report.Scaling.ok then failwith "sim: store ladder envelope fits failed";
  (* ROADMAP's bounded-memory gate: climbing the full ladder may only
     grow the process high-water mark by what the chunk budget allows —
     a few multiples of the top rung's residency budget (chunk cache +
     loaded-chunk scratch) plus the O(n) traversal arrays (~128 B/node
     covers the BFS/upcast/DP per-node state) and fixed allocator
     slack.  A store that silently keeps whole rungs resident blows
     through this long before the n >= 1e5 point.  Quick mode skips:
     its rungs are too small for RSS deltas to mean anything. *)
  (if !quick then
     Printf.printf
       "  SKIP rss gate: quick ladder rungs are below RSS measurement noise\n%!"
   else
     let rungs =
       List.filter_map (fun (s, _, rss) -> Option.map (fun kb -> (s, kb)) rss) points
     in
     match (rungs, List.rev rungs) with
     | (s0, kb0) :: _, (sn, kbn) :: _ when sn.Scaling.st_n > s0.Scaling.st_n ->
         let budget_kb = sn.Scaling.st_stats.Residency.budget / 1024 in
         let scratch_kb = sn.Scaling.st_n * 128 / 1024 in
         let allowed_kb = (2 * budget_kb) + scratch_kb + 8192 in
         let growth_kb = kbn - kb0 in
         Printf.printf
           "  rss gate: n=%d..%d grew peak rss by %d kB (allowed %d kB = \
            2x%d budget + %d scratch + 8192 slack)\n%!"
           s0.Scaling.st_n sn.Scaling.st_n growth_kb allowed_kb budget_kb
           scratch_kb;
         if growth_kb > allowed_kb then
           failwith
             (Printf.sprintf
                "sim: store ladder peak rss grew %d kB from n=%d to n=%d; \
                 the chunk budget only allows %d kB"
                growth_kb s0.Scaling.st_n sn.Scaling.st_n allowed_kb)
     | _ ->
         Printf.printf
           "  SKIP rss gate: peak-rss readings unavailable on this host\n%!");
  Json.Obj
    [
      ( "points",
        Json.List
          (List.map
             (fun (s, ms, rss) ->
               let extra =
                 [
                   ("ms", Json.Float ms);
                   ( "peak_rss_kb",
                     match rss with Some kb -> Json.Int kb | None -> Json.Null
                   );
                 ]
               in
               match Scaling.store_sample_to_json s with
               | Json.Obj fields -> Json.Obj (fields @ extra)
               | j -> j)
             points) );
      ("fits", Scaling.to_json report);
      ("metrics", Metrics.to_json (Metrics.snapshot registry));
    ]

(* Per-phase round profile of one exact solve per workload: the
   top-level spans of the tree, each with its provenance tag, so the
   artifact records where the rounds go, not just how many. *)
let phase_profile (wname, g) =
  let s = Api.min_cut ~params:Params.fast ~algorithm:Api.Exact_small_lambda ~seed:0 g in
  Json.Obj
    [
      ("workload", Json.String wname);
      ("total_rounds", Json.Int s.Api.rounds);
      ( "phases",
        Json.List
          (List.map
             (fun (sp : Cost.span) ->
               Json.Obj
                 [
                   ("label", Json.String sp.Cost.label);
                   ("rounds", Json.Int sp.Cost.rounds);
                   ("provenance", Json.String (Cost.provenance_name sp.Cost.provenance));
                 ])
             s.Api.cost.Cost.spans) );
    ]

(* every sim gate (driver audits, allocation budget, pool reuse, store
   ladder, rss) fires before the end-of-run writes, so the whole bench
   runs under [Artifact.guard] *)
let run () =
  (* quick mode never overwrites the committed full-mode artifact *)
  let path = if !quick then "BENCH_sim_quick.json" else "BENCH_sim.json" in
  Artifact.guard ~path ~bench:"sim"
  @@ fun emit ->
  let iters = if !quick then 500 else 20_000 in
  let solves = if !quick then 4 else 16 in
  Printf.printf "sim: engine drivers (%d iterations each)\n%!" iters;
  let rows = List.map (bench_drivers ~iters) (workloads ()) in
  let gnp_speedup =
    List.fold_left (fun acc (w, s, _) -> if w = "gnp24" then s else acc) 0.0 rows
  in
  (* the ladder runs before the parallel solves: its rss gate reads the
     growth of the process high-water mark, which never falls, so it
     must start from the small pre-parallel heap *)
  let ladder = bench_store_ladder () in
  let parallel = bench_parallel ~solves parallel_workload in
  let json =
    Json.Obj
      [
        ("bench", Json.String "sim");
        ("quick", Json.Bool !quick);
        ("drivers", Json.List (List.map (fun (_, _, j) -> j) rows));
        ("gnp24_speedup_flat_over_reference", Json.Float gnp_speedup);
        ("parallel_exact", parallel);
        ("store_ladder", ladder);
        ("phase_profiles", Json.List (List.map phase_profile (workloads ())));
      ]
  in
  emit json;
  (* the ladder section also stands alone, so CI can upload it as its
     own artifact without dragging the engine microbenchmarks along *)
  Artifact.write "BENCH_sim_ladder.json" ladder;
  Printf.printf
    "wrote %s and BENCH_sim_ladder.json (gnp24 flat-vs-reference speedup: \
     %.2fx)\n%!"
    path gnp_speedup
