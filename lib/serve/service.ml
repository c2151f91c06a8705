module Bitset = Mincut_util.Bitset
module Pool = Mincut_parallel.Pool
module Api = Mincut_core.Api
module Incremental = Mincut_core.Incremental
module Params = Mincut_core.Params
module Cost = Mincut_congest.Cost

type config = {
  params : Params.t;
  cache_entries : int;
  cache_cost : int;
  workers : int;
}

let default_config =
  {
    params = Params.fast;
    cache_entries = 4096;
    cache_cost = 16_777_216;
    workers = Pool.workers (Pool.create ());
  }

type t = {
  cfg : config;
  cache : Api.summary Cache.t;
  scheduler : Scheduler.t;
  pool : Pool.t;
  sessions : (string, Api.session) Hashtbl.t;
  metrics : Metrics.t;
  (* instruments, resolved once *)
  submitted : Metrics.counter;
  completed : Metrics.counter;
  cache_hit : Metrics.counter;
  cache_miss : Metrics.counter;
  coalesced : Metrics.counter;
  batches : Metrics.counter;
  rounds_charged : Metrics.counter;
  deadline_missed : Metrics.counter;
  requests_shed : Metrics.counter;
  deltas_applied : Metrics.counter;
  incremental_hits : Metrics.counter;
  full_resolves : Metrics.counter;
  estimates : Metrics.counter;
  estimate_rounds : Metrics.counter;
  estimate_ms : Metrics.histogram;
  cold_ms : Metrics.histogram;
  warm_ms : Metrics.histogram;
  q_depth : Metrics.gauge;
  g_entries : Metrics.gauge;
  g_cost : Metrics.gauge;
  g_sessions : Metrics.gauge;
}

(* approximate resident footprint of a summary, in words: the side
   bitset dominates, plus the span tree, its derived flat view and
   fixed fields *)
let rec span_words (sp : Cost.span) =
  6 + List.fold_left (fun acc c -> acc + span_words c) 0 sp.Cost.children

let summary_cost (s : Api.summary) =
  8
  + ((Bitset.capacity s.Api.side + 63) / 64)
  + (2 * List.length s.Api.breakdown)
  + List.fold_left (fun acc sp -> acc + span_words sp) 0 s.Api.cost.Cost.spans

(* per-phase round accounting: one counter per top-level span of the
   solved summary, resolved by name on first use so the set of phases
   need not be known up front *)
let metric_slug label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> c
      | 'A' .. 'Z' -> Char.lowercase_ascii c
      | _ -> '_')
    label

let note_phase_rounds metrics (s : Api.summary) =
  List.iter
    (fun (sp : Cost.span) ->
      Metrics.incr ~by:sp.Cost.rounds
        (Metrics.counter metrics ("rounds_phase_" ^ metric_slug sp.Cost.label)))
    s.Api.cost.Cost.spans

let key_of cfg (r : Request.t) =
  Graph_key.key ~algorithm:r.Request.algorithm ~seed:r.Request.seed
    ~trees:r.Request.trees ~params:cfg.params r.Request.graph

let create ?(config = default_config) () =
  let cfg = config in
  let metrics = Metrics.create () in
  {
    cfg;
    cache =
      Cache.create ~max_entries:cfg.cache_entries ~max_cost:cfg.cache_cost
        ~cost:summary_cost ();
    scheduler = Scheduler.create ~key:(key_of cfg) ();
    pool = Pool.create ~workers:cfg.workers ();
    sessions = Hashtbl.create 8;
    metrics;
    submitted = Metrics.counter metrics "requests_submitted";
    completed = Metrics.counter metrics "requests_completed";
    cache_hit = Metrics.counter metrics "cache_hits";
    cache_miss = Metrics.counter metrics "cache_misses";
    coalesced = Metrics.counter metrics "requests_coalesced";
    batches = Metrics.counter metrics "batches_solved";
    rounds_charged = Metrics.counter metrics "rounds_charged";
    deadline_missed = Metrics.counter metrics "deadlines_missed";
    requests_shed = Metrics.counter metrics "requests_shed";
    deltas_applied = Metrics.counter metrics "deltas_applied";
    incremental_hits = Metrics.counter metrics "incremental_hits";
    full_resolves = Metrics.counter metrics "full_resolves";
    estimates = Metrics.counter metrics "estimates_served";
    estimate_rounds = Metrics.counter metrics "rounds_estimate";
    estimate_ms = Metrics.histogram metrics "estimate_ms";
    cold_ms = Metrics.histogram metrics "solve_cold_ms";
    warm_ms = Metrics.histogram metrics "solve_warm_ms";
    q_depth = Metrics.gauge metrics "queue_depth";
    g_entries = Metrics.gauge metrics "cache_entries";
    g_cost = Metrics.gauge metrics "cache_cost_words";
    g_sessions = Metrics.gauge metrics "sessions_open";
  }

let config t = t.cfg

let refresh_gauges t =
  Metrics.set t.g_entries (float_of_int (Cache.length t.cache));
  Metrics.set t.g_cost (float_of_int (Cache.total_cost t.cache));
  Metrics.set t.q_depth (float_of_int (Scheduler.pending t.scheduler))

let run_solve cfg (r : Request.t) =
  Api.min_cut ~params:cfg.params ~algorithm:r.Request.algorithm
    ~seed:r.Request.seed ?trees:r.Request.trees
    (Graph_key.canonicalize r.Request.graph)

let note_completion t (r : Request.t) now =
  Metrics.incr t.completed;
  match r.Request.deadline with
  | Some d when now > d -> Metrics.incr t.deadline_missed
  | _ -> ()

let solve t r =
  Metrics.incr t.submitted;
  let t0 = Unix.gettimeofday () in
  let key = key_of t.cfg r in
  let summary, cached =
    match Cache.find t.cache key with
    | Some s ->
        Metrics.incr t.cache_hit;
        (s, true)
    | None ->
        Metrics.incr t.cache_miss;
        let s = run_solve t.cfg r in
        Cache.add t.cache key s;
        Metrics.incr ~by:s.Api.rounds t.rounds_charged;
        note_phase_rounds t.metrics s;
        (s, false)
  in
  let now = Unix.gettimeofday () in
  let elapsed_ms = (now -. t0) *. 1000.0 in
  Metrics.observe (if cached then t.warm_ms else t.cold_ms) elapsed_ms;
  note_completion t r now;
  refresh_gauges t;
  { Request.summary; cached; key; elapsed_ms }

(* the cheap tier: a sampling-ladder bracket on λ, never a full solve.
   Estimates stay out of the summary cache (they are not Api.summary
   values, and re-running the ladder costs O(log² n) simulated rounds —
   less than a cache probe is worth protecting); their rounds are
   charged to their own counter so solve round-accounting stays pure. *)
let estimate t ?seed ?trials g =
  let t0 = Unix.gettimeofday () in
  let r = Api.estimate ?seed ?trials (Graph_key.canonicalize g) in
  Metrics.incr t.estimates;
  Metrics.incr ~by:r.Mincut_core.Sample_estimate.cost.Cost.rounds
    t.estimate_rounds;
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Metrics.observe t.estimate_ms elapsed_ms;
  (r, elapsed_ms)

let submit t r =
  Metrics.incr t.submitted;
  let ticket = Scheduler.submit t.scheduler r in
  refresh_gauges t;
  ticket

let pending t = Scheduler.pending t.scheduler

type flush_result = {
  answered : (Scheduler.ticket * Request.response) list;
  shed : Scheduler.ticket list;
}

let flush t =
  let batches = Scheduler.drain t.scheduler in
  (* answer what the cache already knows; shed what has already expired
     (a cache hit is free, so those are answered even past deadline —
     shedding only saves solves); collect the rest *)
  let now0 = Unix.gettimeofday () in
  let expired (r : Request.t) =
    match r.Request.deadline with Some d -> now0 > d | None -> false
  in
  let todo = ref [] in
  let answered = ref [] in
  let shed = ref [] in
  List.iter
    (fun (members, (r : Request.t)) ->
      let key = key_of t.cfg r in
      let t0 = Unix.gettimeofday () in
      match Cache.find t.cache key with
      | Some s ->
          let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          Metrics.incr ~by:(List.length members) t.cache_hit;
          List.iter
            (fun (tk, _) -> answered := (tk, r, key, s, true, ms) :: !answered)
            members
      | None ->
          let live, dead =
            List.partition (fun (_, req) -> not (expired req)) members
          in
          List.iter (fun (tk, _) -> shed := tk :: !shed) dead;
          Metrics.incr ~by:(List.length dead) t.requests_shed;
          if live <> [] then begin
            Metrics.incr ~by:(List.length live) t.cache_miss;
            Metrics.incr ~by:(List.length live - 1) t.coalesced;
            todo := (List.map fst live, r, key) :: !todo
          end)
    batches;
  let todo = Array.of_list (List.rev !todo) in
  (* concurrent part: pure solves only, one graph copy per job (the
     canonical rebuild inside [run_solve] is that copy), solve time
     measured inside the worker domain *)
  let solved =
    Pool.map t.pool
      (fun (_, r, _) ->
        let t0 = Unix.gettimeofday () in
        let s = run_solve t.cfg r in
        (s, (Unix.gettimeofday () -. t0) *. 1000.0))
      todo
  in
  Array.iteri
    (fun i (tickets, r, key) ->
      let s, ms = solved.(i) in
      Cache.add t.cache key s;
      Metrics.incr ~by:s.Api.rounds t.rounds_charged;
      note_phase_rounds t.metrics s;
      Metrics.incr t.batches;
      List.iter
        (fun tk -> answered := (tk, r, key, s, false, ms) :: !answered)
        tickets)
    todo;
  let now = Unix.gettimeofday () in
  let responses =
    !answered
    |> List.sort (fun (a, _, _, _, _, _) (b, _, _, _, _, _) -> Int.compare a b)
    |> List.map (fun (tk, r, key, summary, cached, elapsed_ms) ->
           Metrics.observe (if cached then t.warm_ms else t.cold_ms) elapsed_ms;
           note_completion t r now;
           (tk, { Request.summary; cached; key; elapsed_ms }))
  in
  refresh_gauges t;
  { answered = responses; shed = List.sort Int.compare !shed }

(* ---- incremental sessions ------------------------------------------- *)

let session_open t name g =
  let s = Api.open_session ~params:t.cfg.params g in
  Hashtbl.replace t.sessions name s;
  Metrics.set t.g_sessions (float_of_int (Hashtbl.length t.sessions));
  s

let find_session t name =
  match Hashtbl.find_opt t.sessions name with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "unknown session %S (open with SESSION)" name)

let session_delta t name op =
  match find_session t name with
  | Error _ as e -> e
  | Ok s -> (
      match Api.apply_delta s op with
      | Error _ as e -> e
      | Ok (outcome, answer) ->
          Metrics.incr t.deltas_applied;
          (match answer.Api.mode with
          | Incremental.Reused -> Metrics.incr t.incremental_hits
          | Incremental.Cert_solved | Incremental.Resolved ->
              (* both re-solve the whole live graph *)
              Metrics.incr t.full_resolves);
          Ok (s, outcome, answer))

let session_solve t name ~algorithm ~seed ~trees =
  match find_session t name with
  | Error _ as e -> e
  | Ok s ->
      Metrics.incr t.submitted;
      let t0 = Unix.gettimeofday () in
      let key =
        Graph_key.versioned_key ~algorithm ~seed ~trees ~params:t.cfg.params
          (Api.session_handle s)
      in
      let summary, cached =
        match Cache.find t.cache key with
        | Some sum ->
            (* version-chain hit: some earlier version (possibly of
               another session) had this exact structure and solve
               coordinates *)
            Metrics.incr t.cache_hit;
            Metrics.incr t.incremental_hits;
            (sum, true)
        | None ->
            Metrics.incr t.cache_miss;
            let sum, anchored = Api.min_cut_session ~algorithm ~seed ?trees s in
            Cache.add t.cache key sum;
            if anchored then Metrics.incr t.incremental_hits
            else begin
              Metrics.incr ~by:sum.Api.rounds t.rounds_charged;
              note_phase_rounds t.metrics sum
            end;
            (sum, anchored)
      in
      let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      Metrics.observe (if cached then t.warm_ms else t.cold_ms) elapsed_ms;
      Metrics.incr t.completed;
      refresh_gauges t;
      Ok { Request.summary; cached; key; elapsed_ms }

let metrics t = t.metrics

let snapshot t =
  refresh_gauges t;
  Metrics.snapshot t.metrics

