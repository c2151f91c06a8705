(* Sustained delta-stream benchmark: the incremental session against
   naive per-version re-solves.

   A seeded 10⁴-op update stream (10³ in --quick) from
   [Generators.delta_stream] is replayed twice over a torus base:

   - timed pass: one [Api.open_session], every delta answered through
     the cheapest valid tier (reuse / cert-solve / rebuild);
   - untimed replay: a fresh session re-applies the same stream,
     checking every per-version λ against a from-scratch Stoer–Wagner
     solve of the live graph and checking the maintained side still
     achieves it, while a naive baseline ([Api.min_cut] on the
     materialized graph, params:fast — what a client without the delta
     layer would run per update) is timed on a fixed subsample and
     extrapolated to the full stream.

   Emits BENCH_delta.json (BENCH_delta_quick.json in --quick) and
   gates: every λ exact, every side achieving, and incremental
   answers/sec ≥ 5× the naive baseline (printed as "delta gate: PASS"
   — CI greps for it). *)

module Rng = Mincut_util.Rng
module Json = Mincut_util.Json
module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Handle = Mincut_graph.Handle
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Api = Mincut_core.Api
module Params = Mincut_core.Params
module Incremental = Mincut_core.Incremental

let speedup_floor = 5.0

(* the whole bench runs under [Artifact.guard]: the stream-rejection
   failwiths fire before the artifact is assembled, and a run they kill
   must still leave a BENCH_delta.json explaining itself *)
let run () =
  let quick = !Sim.quick in
  (* quick mode never overwrites the committed full-mode artifact *)
  let path = if quick then "BENCH_delta_quick.json" else "BENCH_delta.json" in
  Artifact.guard ~path ~bench:"delta-stream"
  @@ fun emit ->
  let nops = if quick then 1_000 else 10_000 in
  let sample_every = if quick then 8 else 16 in
  let base = Generators.torus 10 10 in
  let rng = Rng.create 42 in
  let ops = Generators.delta_stream ~rng ~wmax:4 ~base nops in
  let nops = List.length ops in
  (* timed pass: the whole stream through one session *)
  let session = Api.open_session ~params:Params.fast base in
  let t0 = Unix.gettimeofday () in
  let lambdas = ref [] in
  List.iter
    (fun op ->
      match Api.apply_delta session op with
      | Ok (_, a) -> lambdas := a.Api.lambda :: !lambdas
      | Error e -> failwith ("delta: generated stream rejected: " ^ e))
    ops;
  let inc_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let lambdas = Array.of_list (List.rev !lambdas) in
  let st = Api.session_stats session in
  (* untimed replay: λ-exactness and side validity at EVERY version,
     naive baseline timed on every [sample_every]-th version *)
  let check = Api.open_session ~params:Params.fast base in
  let mismatches = ref 0 and bad_sides = ref 0 in
  let naive_ms = ref 0.0 and naive_solves = ref 0 in
  List.iteri
    (fun i op ->
      match Api.apply_delta check op with
      | Error e -> failwith ("delta: replay diverged: " ^ e)
      | Ok (_, a) ->
          let live = Api.session_graph check in
          let truth = Stoer_wagner.min_cut_value live in
          if a.Api.lambda <> truth || a.Api.lambda <> lambdas.(i) then
            incr mismatches;
          if Graph.cut_of_bitset live (Api.session_side check) <> truth then
            incr bad_sides;
          if i mod sample_every = 0 then begin
            let n0 = Unix.gettimeofday () in
            let s = Api.min_cut ~params:Params.fast live in
            naive_ms := !naive_ms +. ((Unix.gettimeofday () -. n0) *. 1000.0);
            incr naive_solves;
            if s.Api.value <> truth then incr mismatches
          end)
    ops;
  let naive_ms_per = !naive_ms /. float_of_int !naive_solves in
  let naive_total_est = naive_ms_per *. float_of_int nops in
  let inc_per_sec = float_of_int nops /. (inc_ms /. 1000.0) in
  let naive_per_sec = 1000.0 /. naive_ms_per in
  let speedup = naive_total_est /. inc_ms in
  let fallback = Incremental.fallback_rate st in
  let json =
    Json.Obj
      [
        ("bench", Json.String "delta-stream");
        ("quick", Json.Bool quick);
        ("ops", Json.Int nops);
        ("base_n", Json.Int (Graph.n base));
        ("base_m", Json.Int (Graph.m base));
        ("final_version", Json.Int (Handle.version (Api.session_handle session)));
        ("incremental_ms_total", Json.Float inc_ms);
        ("incremental_answers_per_sec", Json.Float inc_per_sec);
        ("naive_solves_sampled", Json.Int !naive_solves);
        ("naive_ms_per_solve", Json.Float naive_ms_per);
        ("naive_answers_per_sec", Json.Float naive_per_sec);
        ("naive_ms_total_estimated", Json.Float naive_total_est);
        ("speedup_incremental_over_naive", Json.Float speedup);
        ("reused", Json.Int st.Incremental.reused);
        ("cert_solves", Json.Int st.Incremental.cert_solves);
        ("full_resolves", Json.Int st.Incremental.full_resolves);
        ("fallback_rate", Json.Float fallback);
        ("lambda_checked", Json.Int nops);
        ("lambda_mismatches", Json.Int !mismatches);
        ("side_violations", Json.Int !bad_sides);
      ]
  in
  emit json;
  Printf.printf
    "delta stream: %d ops in %.1f ms (%.0f answers/s), naive %.3f ms/solve \
     (%.0f answers/s), speedup %.1fx, tiers reused=%d cert=%d full=%d \
     (fallback %.3f)\n"
    nops inc_ms inc_per_sec naive_ms_per naive_per_sec speedup
    st.Incremental.reused st.Incremental.cert_solves
    st.Incremental.full_resolves fallback;
  Printf.printf "wrote %s\n" path;
  if !mismatches > 0 then
    failwith
      (Printf.sprintf "delta: %d incremental λ answers diverged from \
                       from-scratch solves" !mismatches);
  if !bad_sides > 0 then
    failwith
      (Printf.sprintf "delta: %d maintained sides fail to achieve λ" !bad_sides);
  if speedup < speedup_floor then
    failwith
      (Printf.sprintf
         "delta: incremental speedup %.2fx below the %.0fx floor" speedup
         speedup_floor);
  Printf.printf "delta gate: PASS (%.1fx >= %.0fx, %d/%d λ exact)\n%!" speedup
    speedup_floor (nops - !mismatches) nops
