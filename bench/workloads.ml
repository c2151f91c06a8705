(* Workload definitions shared by the experiments.  Each experiment of
   EXPERIMENTS.md names one of these families with its parameters. *)

module Rng = Mincut_util.Rng
module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Tree = Mincut_graph.Tree

(* Supercritical Erdős–Rényi: connected w.h.p., diameter O(log n) — the
   family for n-sweeps where D must stay small.  The certifier's
   scaling ladder uses the same family, so the definition lives there. *)
let gnp_supercritical ~seed n = Mincut_analysis.Scaling.supercritical ~seed n

(* Diameter-controlled family: λ = 2 stays fixed, D grows linearly. *)
let cliques_path ~length = Generators.path_of_cliques ~clique:8 ~length

(* λ-controlled family. *)
let planted ~seed ~n ~lambda =
  let rng = Rng.create seed in
  Generators.planted_cut ~rng ~n ~cut_edges:lambda ~p_in:0.7 ()

(* Planted family with shuffled edge ids: the deterministic packing's
   id-based tie-breaking must not be allowed to see the construction
   order, or the first MST trivially 1-respects the planted cut. *)
let shuffled_planted ~seed ~n ~lambda =
  let g = 
    let rng = Rng.create seed in
    Generators.planted_cut ~rng ~n ~cut_edges:lambda ~p_in:0.7 ()
  in
  let triples =
    Array.of_list (Graph.fold_edges (fun acc e -> (e.Graph.u, e.Graph.v, e.Graph.w) :: acc) [] g)
  in
  let rng = Rng.create (seed * 31 + 7) in
  Rng.shuffle rng triples;
  Graph.of_array ~n triples

let diameter_of g = Tree.height (Tree.bfs_tree g ~root:0)

let sqrt_n_plus_d g =
  let n = Graph.n g in
  let d = diameter_of g in
  ceil (sqrt (float_of_int n)) +. float_of_int d

(* The correctness suite for T1: every deterministic family with its
   known λ plus seeded random ones checked against Stoer–Wagner. *)
let t1_suite () =
  let rng = Rng.create 0xBEEF in
  [
    ("ring-32", Generators.ring 32);
    ("complete-16", Generators.complete 16);
    ("grid-8x8", Generators.grid 8 8);
    ("torus-6x6", Generators.torus 6 6);
    ("hypercube-6", Generators.hypercube 6);
    ("wheel-24", Generators.wheel 24);
    ("barbell-10", Generators.barbell 10);
    ("dumbbell-8-6", Generators.dumbbell 8 6);
    ("cliques-path-8x6", Generators.path_of_cliques ~clique:8 ~length:6);
    ("gnp-48", Generators.gnp_connected ~rng 48 0.2);
    ("gnp-64-weighted",
     Generators.gnp_connected ~rng ~weights:{ Generators.wmin = 1; wmax = 6 } 64 0.15);
    ("planted-64-3", Generators.planted_cut ~rng ~n:64 ~cut_edges:3 ~p_in:0.5 ());
    ("regular-40-4", Generators.random_regular ~rng 40 4);
  ]

(* ------------------------------------------------------------------ *)
(* Serve throughput: cold vs warm-cache queries through the service    *)
(* ------------------------------------------------------------------ *)

module Serve = Mincut_serve.Service
module Serve_request = Mincut_serve.Request
module Json = Mincut_util.Json
module Api = Mincut_core.Api

(* The query zoo: every T1 family under several algorithm/seed mixes —
   the repeat-heavy request stream a long-lived deployment sees. *)
let serve_zoo () =
  let algos = [ Api.Exact_small_lambda; Api.Exact_two_respect; Api.Approx 0.5 ] in
  List.concat_map
    (fun (_, g) ->
      List.map (fun algorithm -> Serve_request.make ~algorithm ~seed:1 g) algos)
    (t1_suite ())

let time_pass f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let identical (a : Api.summary) (b : Api.summary) =
  a.Api.value = b.Api.value && a.Api.rounds = b.Api.rounds
  && Mincut_util.Bitset.equal a.Api.side b.Api.side
  && a.Api.breakdown = b.Api.breakdown
  && Mincut_congest.Cost.equal a.Api.cost b.Api.cost

(* Emits BENCH_serve.json: the perf trajectory later serving PRs must
   beat.  Headline figures: cold vs warm per-query latency (the ≥10×
   memoization claim) and batched cold throughput on the worker pool. *)
let serve_throughput () =
  Artifact.guard ~path:"BENCH_serve.json" ~bench:"serve-throughput"
  @@ fun emit ->
  let service = Serve.create () in
  let zoo = serve_zoo () in
  let queries = List.length zoo in
  let cold, cold_ms = time_pass (fun () -> List.map (Serve.solve service) zoo) in
  let warm_passes = 5 in
  let warm_results = ref [] in
  let _, warm_ms_total =
    time_pass (fun () ->
        for _ = 1 to warm_passes do
          warm_results := List.map (Serve.solve service) zoo
        done)
  in
  let warm_ms = warm_ms_total /. float_of_int warm_passes in
  let warm = !warm_results in
  let all_identical =
    List.for_all2
      (fun (a : Serve_request.response) (b : Serve_request.response) ->
        b.Serve_request.cached
        && identical a.Serve_request.summary b.Serve_request.summary)
      cold warm
  in
  (* batched cold pass on the worker pool: a fresh service with an
     explicit multi-domain pool, everything submitted up front, one
     flush — answers must match the sequential cold pass bit for bit *)
  let pooled = Serve.create ~config:{ Serve.default_config with Serve.workers = 4 } () in
  let batch, batch_ms =
    time_pass (fun () ->
        List.iter (fun r -> ignore (Serve.submit pooled r)) zoo;
        (Serve.flush pooled).Serve.answered)
  in
  let batch_identical =
    List.for_all2
      (fun (a : Serve_request.response) (_, (b : Serve_request.response)) ->
        identical a.Serve_request.summary b.Serve_request.summary)
      cold batch
  in
  let speedup = cold_ms /. warm_ms in
  let snap = Serve.snapshot service in
  let json =
    Json.Obj
      [
        ("bench", Json.String "serve-throughput");
        ("queries", Json.Int queries);
        ("cold_ms_total", Json.Float cold_ms);
        ("cold_ms_per_query", Json.Float (cold_ms /. float_of_int queries));
        ("warm_ms_total", Json.Float warm_ms);
        ("warm_ms_per_query", Json.Float (warm_ms /. float_of_int queries));
        ("warm_passes", Json.Int warm_passes);
        ("speedup_warm_over_cold", Json.Float speedup);
        ("batch_cold_ms_total", Json.Float batch_ms);
        ("batch_answers", Json.Int (List.length batch));
        ("pool_workers", Json.Int (Serve.config pooled).Serve.workers);
        ("batch_bit_identical", Json.Bool batch_identical);
        ("cache_hits", Json.Int (Serve.cache_hits service));
        ("cache_misses", Json.Int (Serve.cache_misses service));
        ("warm_bit_identical", Json.Bool all_identical);
        ("metrics", Mincut_serve.Metrics.to_json snap);
      ]
  in
  let path = "BENCH_serve.json" in
  emit json;
  Printf.printf
    "serve throughput: %d queries, cold %.1f ms (%.2f ms/q), warm %.2f ms \
     (%.4f ms/q), speedup %.0fx, batch(cold,%d workers) %.1f ms, identical=%b\n"
    queries cold_ms
    (cold_ms /. float_of_int queries)
    warm_ms
    (warm_ms /. float_of_int queries)
    speedup (Serve.config pooled).Serve.workers batch_ms
    (all_identical && batch_identical);
  Printf.printf "wrote %s\n" path
