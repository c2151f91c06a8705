(* The serving layer: LRU cache bounds and eviction order, structural
   hashing, cache-hit bit-identity with fresh solves, scheduler
   coalescing, the worker pool, metrics accounting and the line
   protocol. *)

open Test_helpers
module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Delta = Mincut_graph.Delta
module Handle = Mincut_graph.Handle
module Rng = Mincut_util.Rng
module Bitset = Mincut_util.Bitset
module Hash = Mincut_util.Hash
module Api = Mincut_core.Api
module Params = Mincut_core.Params
module Cost = Mincut_congest.Cost
module Cache = Mincut_serve.Cache
module Graph_key = Mincut_serve.Graph_key
module Json = Mincut_util.Json
module Metrics = Mincut_serve.Metrics
module Pool = Mincut_parallel.Pool
module Request = Mincut_serve.Request
module Scheduler = Mincut_serve.Scheduler
module Service = Mincut_serve.Service
module Server = Mincut_serve.Server
module Protocol = Mincut_serve.Protocol

let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* ---- cache ----------------------------------------------------------- *)

let unit_cost_cache ?(max_entries = 4096) ?max_cost () =
  Cache.create ~max_entries ?max_cost ~cost:(fun (_ : string) -> 1) ()

let test_lru_eviction_order () =
  let c = unit_cost_cache ~max_entries:3 () in
  Cache.add c "a" "va";
  Cache.add c "b" "vb";
  Cache.add c "c" "vc";
  (* touch "a": it becomes most recent, "b" is now least recent *)
  check_bool "hit a" true (Cache.find c "a" = Some "va");
  Alcotest.(check (list string))
    "recency after touch" [ "a"; "c"; "b" ] (Cache.keys_mru_first c);
  Cache.add c "d" "vd";
  check_bool "b evicted (LRU)" false (Cache.mem c "b");
  check_bool "a kept" true (Cache.mem c "a");
  check_bool "c kept" true (Cache.mem c "c");
  Alcotest.(check (list string))
    "recency after eviction" [ "d"; "a"; "c" ] (Cache.keys_mru_first c);
  check_int "one eviction" 1 (Cache.evictions c)

let test_lru_entry_bound () =
  let c = unit_cost_cache ~max_entries:10 () in
  for i = 1 to 100 do
    Cache.add c (string_of_int i) "v"
  done;
  check_int "length bounded" 10 (Cache.length c);
  check_int "evictions counted" 90 (Cache.evictions c);
  (* survivors are exactly the 10 most recent inserts *)
  for i = 91 to 100 do
    check_bool (Printf.sprintf "%d resident" i) true (Cache.mem c (string_of_int i))
  done

let test_lru_cost_bound () =
  let c = Cache.create ~max_cost:10 ~cost:String.length () in
  Cache.add c "a" "xxxx";
  Cache.add c "b" "xxxx";
  check_int "cost 8 resident" 8 (Cache.total_cost c);
  Cache.add c "c" "xxxx";
  (* 12 > 10: evict from the LRU end down to the bound *)
  check_bool "within cost bound" true (Cache.total_cost c <= 10);
  check_bool "a evicted first" false (Cache.mem c "a");
  (* a lone over-cost value is still admitted *)
  let big = String.make 50 'x' in
  Cache.add c "big" big;
  Cache.add c "big2" big;
  check_int "over-cost values never coexist" 1 (Cache.length c);
  check_bool "newest survives" true (Cache.mem c "big2")

let test_cache_replace_and_counters () =
  let c = unit_cost_cache () in
  check_bool "miss" true (Cache.find c "k" = None);
  Cache.add c "k" "v1";
  Cache.add c "k" "v2";
  check_int "replace keeps one entry" 1 (Cache.length c);
  check_bool "hit sees newest" true (Cache.find c "k" = Some "v2")

(* ---- structural hashing ---------------------------------------------- *)

let shuffled_copy ~seed g =
  let triples =
    Array.map (fun e -> (e.Graph.u, e.Graph.v, e.Graph.w)) (Graph.edges g)
  in
  Rng.shuffle (Rng.create seed) triples;
  Graph.of_array ~n:(Graph.n g) triples

let test_hash_sensitivity () =
  let g = Generators.ring 6 in
  let h = Graph_key.structural_hash g in
  let heavier = Graph.reweight g ~f:(fun e -> e.Graph.w + 1) in
  check_bool "weights change the hash" false
    (h = Graph_key.structural_hash heavier);
  let bigger = Generators.ring 7 in
  check_bool "node count changes the hash" false
    (h = Graph_key.structural_hash bigger);
  (* parallel edges are a multiset, not a set *)
  let doubled = Graph.create ~n:3 [ (0, 1, 1); (0, 1, 1); (1, 2, 1); (0, 2, 1) ] in
  let single = Graph.create ~n:3 [ (0, 1, 1); (1, 2, 1); (0, 2, 1) ] in
  check_bool "multiplicity matters" false
    (Graph_key.structural_hash doubled = Graph_key.structural_hash single)

let test_canonicalize_idempotent () =
  let g = shuffled_copy ~seed:5 (Generators.grid 3 4) in
  let c1 = Graph_key.canonicalize g in
  let c2 = Graph_key.canonicalize c1 in
  check_bool "same structure" true (Graph.equal_structure g c1);
  check_bool "canonical edge order is a fixpoint" true
    (Array.for_all2
       (fun a b -> (a.Graph.u, a.Graph.v, a.Graph.w) = (b.Graph.u, b.Graph.v, b.Graph.w))
       (Graph.edges c1) (Graph.edges c2))

(* Cache keys are persistent identities: both strings were recorded
   before the algorithm spelling moved into [Api.solve_tag] and must stay
   byte-identical. *)
let test_cache_keys_pinned () =
  check_string "plain key"
    "approx:0x1p-1|s3|t12|kp1:real:w4:r2000000|n16|m32|w32|f70500a9e7392615"
    (Graph_key.key ~algorithm:(Api.Approx 0.5) ~seed:3 ~trees:(Some 12)
       ~params:Params.default (Generators.torus 4 4));
  check_string "versioned key"
    "inc|exact|s0|t-|kp1:real:w4:r2000000|n6|c6|w6|4df3e894b5c9d1ec"
    (Graph_key.versioned_key ~algorithm:Api.Exact_small_lambda ~seed:0
       ~trees:None ~params:Params.default
       (Handle.of_graph (Generators.ring 6)))

(* ---- metrics --------------------------------------------------------- *)

let test_metrics_counters_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "reqs" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "counter accumulates" 5 (Metrics.counter_value c);
  check_int "same name, same instrument" 5
    (Metrics.counter_value (Metrics.counter m "reqs"));
  let g = Metrics.gauge m "depth" in
  Metrics.set g 3.5;
  check_float "gauge holds last value" 3.5 (Metrics.gauge_value g)

let test_metrics_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  let snap = Metrics.snapshot m in
  match List.assoc_opt "lat" snap.Metrics.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some s ->
      check_int "count" 100 s.Metrics.count;
      check_float "mean" 50.5 s.Metrics.mean;
      check_float "max" 100.0 s.Metrics.max;
      check_bool "p50 in the middle" true (s.Metrics.p50 >= 49.0 && s.Metrics.p50 <= 52.0);
      check_bool "p90 near the top" true (s.Metrics.p90 >= 89.0 && s.Metrics.p90 <= 92.0);
      check_bool "quantiles ordered" true
        (s.Metrics.p50 <= s.Metrics.p90 && s.Metrics.p90 <= s.Metrics.p99
       && s.Metrics.p99 <= s.Metrics.max)

let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.incr ~by:7 (Metrics.counter m "a");
  Metrics.set (Metrics.gauge m "g") 2.25;
  Metrics.observe (Metrics.histogram m "h") 1.5;
  Metrics.observe (Metrics.histogram m "h") 2.5;
  let snap = Metrics.snapshot m in
  match Metrics.snapshot_of_json_line (Json.to_string (Metrics.to_json snap)) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      check_bool "counters round-trip" true (back.Metrics.counters = snap.Metrics.counters);
      check_bool "gauges round-trip" true (back.Metrics.gauges = snap.Metrics.gauges);
      check_bool "histograms round-trip" true
        (back.Metrics.histograms = snap.Metrics.histograms)

let test_json_parser () =
  let roundtrip v = Json.of_string (Json.to_string v) = Ok v in
  check_bool "nested value round-trips" true
    (roundtrip
       (Json.Obj
          [
            ("s", Json.String "a \"quoted\"\nline");
            ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.Bool false; Json.Null ]);
            ("o", Json.Obj []);
          ]));
  check_bool "trailing garbage rejected" true
    (match Json.of_string "{} x" with Error _ -> true | Ok _ -> false);
  check_bool "unterminated string rejected" true
    (match Json.of_string "\"abc" with Error _ -> true | Ok _ -> false)

(* ---- scheduler ------------------------------------------------------- *)

let test_scheduler_priority_and_coalescing () =
  let ring = Generators.ring 8 in
  let grid = Generators.grid 3 3 in
  let key r = Graph_key.key ~algorithm:r.Request.algorithm ~seed:r.Request.seed
      ~trees:r.Request.trees ~params:Params.fast r.Request.graph
  in
  let s = Scheduler.create ~key () in
  let t0 = Scheduler.submit s (Request.make ring) in
  let t1 = Scheduler.submit s (Request.make grid ~priority:3) in
  let t2 = Scheduler.submit s (Request.make (shuffled_copy ~seed:1 ring)) in
  check_int "pending" 3 (Scheduler.pending s);
  check_int "two distinct batches" 2 (Scheduler.depth s);
  match Scheduler.drain s with
  | [ (tks_grid, r_grid); (tks_ring, _) ] ->
      check_bool "high priority first" true (r_grid.Request.priority = 3);
      Alcotest.(check (list int)) "grid batch" [ t1 ] (List.map fst tks_grid);
      Alcotest.(check (list int))
        "permuted ring coalesced with ring" [ t0; t2 ] (List.map fst tks_ring);
      check_int "drained" 0 (Scheduler.pending s)
  | batches -> Alcotest.fail (Printf.sprintf "expected 2 batches, got %d" (List.length batches))

let test_scheduler_deadline_order () =
  let g = Generators.ring 6 in
  let key _ = "k" in
  (* same key: the batch representative must be the urgent one *)
  let s = Scheduler.create ~key:(fun r -> key r) () in
  let _ = Scheduler.submit s (Request.make g ~deadline:9999.0) in
  let _ = Scheduler.submit s (Request.make g ~deadline:1.0) in
  (match Scheduler.drain s with
  | [ (tickets, rep) ] ->
      check_int "coalesced into one batch" 2 (List.length tickets);
      check_bool "earliest deadline represents" true (rep.Request.deadline = Some 1.0)
  | _ -> Alcotest.fail "expected a single batch");
  (* distinct keys: earlier deadline drains first within a priority class *)
  let s2 = Scheduler.create ~key:(fun r -> string_of_int r.Request.seed) () in
  let _ = Scheduler.submit s2 (Request.make g ~seed:1 ~deadline:50.0) in
  let _ = Scheduler.submit s2 (Request.make g ~seed:2 ~deadline:5.0) in
  match Scheduler.drain s2 with
  | [ (_, first); (_, second) ] ->
      check_bool "deadline ascending" true
        (first.Request.deadline = Some 5.0 && second.Request.deadline = Some 50.0)
  | _ -> Alcotest.fail "expected two batches"

(* ---- worker pool ----------------------------------------------------- *)

let test_pool_matches_sequential () =
  let jobs = Array.init 64 (fun i -> i) in
  let f i = Array.fold_left ( + ) 0 (Array.init (100 + i) (fun j -> i * j)) in
  let seq = Array.map f jobs in
  let par = Pool.map (Pool.create ~workers:4 ()) f jobs in
  check_bool "parallel map preserves order and values" true (seq = par)

let test_pool_exception_propagates () =
  let pool = Pool.create ~workers:3 () in
  check_bool "raises" true
    (match Pool.map pool (fun i -> if i = 5 then failwith "boom" else i) (Array.init 8 Fun.id) with
    | _ -> false
    | exception Failure msg -> msg = "boom")

(* ---- service --------------------------------------------------------- *)

let service ?(workers = 1) () =
  Service.create
    ~config:{ Service.default_config with Service.workers }
    ()

let check_summaries_identical msg (a : Api.summary) (b : Api.summary) =
  check_int (msg ^ ": value") a.Api.value b.Api.value;
  check_int (msg ^ ": rounds") a.Api.rounds b.Api.rounds;
  check_bool (msg ^ ": side") true (Bitset.equal a.Api.side b.Api.side);
  check_bool (msg ^ ": breakdown") true (a.Api.breakdown = b.Api.breakdown);
  check_bool (msg ^ ": span tree") true (Cost.equal a.Api.cost b.Api.cost);
  check_bool (msg ^ ": algorithm") true (a.Api.algorithm = b.Api.algorithm)

(* Bit-identity of a cache hit must extend to the serialized span tree:
   a warm answer re-encodes to the exact bytes of the cold one, span for
   span (value, side, rounds and per-span provenance all equal). *)
let test_service_cache_hit_span_tree () =
  let t = service () in
  let g = Generators.grid 5 5 in
  let cold = Service.solve t (Request.make g) in
  let warm = Service.solve t (Request.make g) in
  check_bool "second is a hit" true warm.Request.cached;
  let a = cold.Request.summary and b = warm.Request.summary in
  check_summaries_identical "cold vs warm" a b;
  let rec provenances (sp : Cost.span) =
    Cost.provenance_name sp.Cost.provenance
    :: List.concat_map provenances sp.Cost.children
  in
  Alcotest.(check (list string))
    "per-span provenance"
    (List.concat_map provenances a.Api.cost.Cost.spans)
    (List.concat_map provenances b.Api.cost.Cost.spans);
  check_string "serialized span tree bytes"
    (Json.to_string (Cost.to_json a.Api.cost))
    (Json.to_string (Cost.to_json b.Api.cost))

let test_service_cache_hit_identical () =
  let t = service () in
  let g = Generators.torus 4 4 in
  let r1 = Service.solve t (Request.make g) in
  let r2 = Service.solve t (Request.make g) in
  check_bool "first is a miss" false r1.Request.cached;
  check_bool "second is a hit" true r2.Request.cached;
  check_string "same key" r1.Request.key r2.Request.key;
  check_summaries_identical "hit vs miss" r1.Request.summary r2.Request.summary;
  (* and both match a fresh Api solve of the canonical graph *)
  let fresh =
    Api.min_cut ~params:(Service.config t).Service.params
      (Graph_key.canonicalize g)
  in
  check_summaries_identical "cache vs fresh" fresh r1.Request.summary

let test_service_flush_batches () =
  (* a 4-worker flush answers bit for bit like sequential solves, for
     every pipeline the pool fans out *)
  let seq = service () and pooled = service ~workers:4 () in
  let reqs =
    List.concat_map
      (fun g ->
        List.map
          (fun algorithm -> Request.make ~algorithm ~seed:1 g)
          [ Api.Exact_small_lambda; Api.Exact_two_respect; Api.Approx 0.5 ])
      [ Generators.grid 4 4; Generators.barbell 5; Generators.wheel 8 ]
  in
  List.iter (fun r -> ignore (Service.submit pooled r)) reqs;
  let batch = (Service.flush pooled).Service.answered in
  check_int "pooled flush answers all" (List.length reqs) (List.length batch);
  List.iter2
    (fun req (_, (b : Request.response)) ->
      check_summaries_identical "4-worker flush vs sequential solve"
        (Service.solve seq req).Request.summary b.Request.summary)
    reqs batch;
  let t = service ~workers:2 () in
  let ring = Generators.ring 10 in
  let t0 = Service.submit t (Request.make ring) in
  let t1 = Service.submit t (Request.make (shuffled_copy ~seed:3 ring)) in
  let t2 = Service.submit t (Request.make (Generators.grid 3 3)) in
  check_int "pending" 3 (Service.pending t);
  let { Service.answered = responses; shed } = Service.flush t in
  check_int "all answered" 3 (List.length responses);
  check_int "nothing shed" 0 (List.length shed);
  check_int "drained" 0 (Service.pending t);
  Alcotest.(check (list int))
    "ticket order" [ t0; t1; t2 ]
    (List.map fst responses);
  let r0 = List.assoc t0 responses and r1 = List.assoc t1 responses in
  check_summaries_identical "coalesced duplicates identical"
    r0.Request.summary r1.Request.summary;
  (* a second flush of the same work is all cache hits *)
  let _ = Service.submit t (Request.make ring) in
  (match (Service.flush t).Service.answered with
  | [ (_, r) ] -> check_bool "warm flush hits" true r.Request.cached
  | _ -> Alcotest.fail "expected one response");
  let m = Service.metrics t in
  check_int "coalesced counted" 1
    (Metrics.counter_value (Metrics.counter m "requests_coalesced"))

let test_service_metrics_accounting () =
  let t = service () in
  let g = Generators.complete 6 in
  let _ = Service.solve t (Request.make g) in
  let _ = Service.solve t (Request.make g) in
  let _ = Service.solve t (Request.make g ~seed:7) in
  let snap = Service.snapshot t in
  let counter name = List.assoc name snap.Metrics.counters in
  check_int "submitted" 3 (counter "requests_submitted");
  check_int "completed" 3 (counter "requests_completed");
  check_int "hits" 1 (counter "cache_hits");
  check_int "misses" 2 (counter "cache_misses");
  check_bool "rounds charged only for real solves" true (counter "rounds_charged" > 0);
  check_bool "cache gauge" true (List.assoc "cache_entries" snap.Metrics.gauges = 2.0);
  let hist name = List.assoc name snap.Metrics.histograms in
  check_int "cold latencies observed" 2 (hist "solve_cold_ms").Metrics.count;
  check_int "warm latencies observed" 1 (hist "solve_warm_ms").Metrics.count

(* A request completing after its absolute deadline must bump the
   deadlines_missed counter; on-time and deadline-free requests must
   not. *)
let test_service_deadline_missed () =
  let t = service () in
  let g = Generators.ring 8 in
  (* epoch + 1s is decades in the past, so the solve always "misses" *)
  let late = Service.solve t (Request.make g ~deadline:1.0) in
  check_bool "late request still answered" true (late.Request.summary.Api.value > 0);
  let counter name = List.assoc name (Service.snapshot t).Metrics.counters in
  check_int "miss counted" 1 (counter "deadlines_missed");
  let _ = Service.solve t (Request.make g ~seed:1) in
  let _ = Service.solve t (Request.make g ~seed:2 ~deadline:(Unix.gettimeofday () +. 3600.0)) in
  check_int "no-deadline and on-time requests do not count" 1
    (counter "deadlines_missed")

(* ---- line protocol / server ------------------------------------------ *)

let scripted_io lines =
  let input = ref lines in
  let output = ref [] in
  ( {
      Server.read_line =
        (fun () ->
          match !input with
          | [] -> None
          | l :: rest ->
              input := rest;
              Some l);
      write_line = (fun s -> output := s :: !output);
    },
    fun () -> List.rev !output )

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_server_session () =
  let io, collected =
    scripted_io
      [
        "PING";
        "# a comment line";
        "GRAPH tri 3 3";
        "0 1 1";
        "1 2 1";
        "0 2 1";
        "SOLVE graph=tri";
        "SOLVE graph=tri";
        "ESTIMATE graph=tri";
        "ESTIMATE graph=nope";
        "SOLVE graph=nope";
        "BOGUS";
        "GRAPH d 4 2";
        "0 1 1";
        "2 3 1";
        "SOLVE graph=d algo=approx";
        "STATS";
        "QUIT";
      ]
  in
  let reason = Server.run (service ()) io in
  check_bool "quit reason" true (reason = Server.Quit);
  match collected () with
  | [ pong; graph_ok; ok1; ok2; est; err_est; err_graph; err_verb; _; ok_d; stats; bye ] ->
      check_string "pong" "PONG" pong;
      check_bool "graph registered" true (has_prefix ~prefix:"OK graph tri n=3 m=3" graph_ok);
      check_bool "solve ok and cold" true
        (has_prefix ~prefix:"OK value=2" ok1 && contains ~sub:"cached=false" ok1);
      check_bool "warm repeat hits" true
        (has_prefix ~prefix:"OK value=2" ok2 && contains ~sub:"cached=true" ok2);
      check_bool "estimate answers with a bracket" true
        (has_prefix ~prefix:"OK estimate=" est
        && contains ~sub:"lower=" est && contains ~sub:"upper=" est);
      check_bool "estimate on unknown graph is ERR" true
        (has_prefix ~prefix:"ERR" err_est);
      check_bool "unknown graph is ERR" true (has_prefix ~prefix:"ERR" err_graph);
      check_bool "unknown verb is ERR" true (has_prefix ~prefix:"ERR" err_verb);
      check_bool "approx on a disconnected graph is the 0-cut" true
        (has_prefix ~prefix:"OK value=0 " ok_d);
      check_bool "stats line is JSON" true (has_prefix ~prefix:"STATS {" stats);
      check_string "bye" "BYE" bye
  | lines ->
      Alcotest.fail
        (Printf.sprintf "unexpected response count %d: %s" (List.length lines)
           (String.concat " | " lines))

let test_server_submit_flush () =
  let io, collected =
    scripted_io
      [
        "SUBMIT family=ring size=12";
        "SUBMIT family=ring size=12 priority=2";
        "SUBMIT family=complete size=5 priority=9";
        "FLUSH";
      ]
  in
  let reason = Server.run (service ~workers:2 ()) io in
  check_bool "eof ends session" true (reason = Server.Eof);
  let lines = collected () in
  (match lines with
  | [ q0; q1; q2; r0; r1; r2; done_line ] ->
      check_string "ticket 0" "QUEUED 0" q0;
      check_string "ticket 1" "QUEUED 1" q1;
      check_string "ticket 2" "QUEUED 2" q2;
      (* RESULT lines come back in ticket order regardless of batch order *)
      check_bool "result 0" true (has_prefix ~prefix:"RESULT 0 value=2" r0);
      check_bool "result 1" true (has_prefix ~prefix:"RESULT 1 value=2" r1);
      check_bool "result 2" true (has_prefix ~prefix:"RESULT 2 value=4" r2);
      check_string "done" "DONE 3" done_line
  | _ ->
      Alcotest.fail
        (Printf.sprintf "unexpected response shape: %s" (String.concat " | " lines)))

let test_server_graph_payload_drained () =
  (* a malformed edge must not desync the stream: the remaining
     announced edge lines are consumed, not parsed as commands *)
  let io, collected =
    scripted_io [ "GRAPH x 4 3"; "0 1 1"; "not an edge"; "2 3 1"; "PING"; "QUIT" ]
  in
  let _ = Server.run (service ()) io in
  match collected () with
  | [ err; pong; bye ] ->
      check_bool "edge error reported" true (has_prefix ~prefix:"ERR" err);
      check_string "stream stays in sync" "PONG" pong;
      check_string "bye" "BYE" bye
  | lines ->
      Alcotest.fail
        (Printf.sprintf "unexpected responses: %s" (String.concat " | " lines))

let test_server_oversized_graph_header () =
  (* the header's m is a claim, not an allocation: the edge buffer grows
     as lines arrive, so a long list loads in full and a list that ends
     early is an ERR line, after which the server reads on to end of
     input.  The header's n is capped before anything is allocated: a
     10^11-node header is an ERR line naming the cap, its edge line is
     drained as payload, and the session answers on *)
  let long = List.init 5000 (fun i -> Printf.sprintf "0 1 %d" (1 + (i mod 3))) in
  let io, collected =
    scripted_io
      ((("GRAPH long 2 5000" :: long) @ [ "GRAPH v 100000000000 1"; "0 1 1"; "PING" ])
      @ [ "GRAPH u 2 100000000000"; "0 1 1" ])
  in
  let reason = Server.run (service ()) io in
  check_bool "eof ends session" true (reason = Server.Eof);
  match collected () with
  | [ ok; cap; pong; err ] ->
      check_bool "long list loads" true (has_prefix ~prefix:"OK graph long n=2 m=5000 " ok);
      check_string "GRAPH error names the node cap"
        "ERR GRAPH: n=100000000000 is above the cap of 4194304 nodes" cap;
      check_string "session answers on" "PONG" pong;
      check_bool "GRAPH error line" true (has_prefix ~prefix:"ERR GRAPH u: " err);
      check_bool "names the short edge list" true (contains ~sub:"end of input" err)
  | lines ->
      Alcotest.fail
        (Printf.sprintf "unexpected responses: %s" (String.concat " | " lines))

let test_server_rejected_header_drained () =
  (* a header [parse] rejects still announces its m edge lines: they are
     drained as payload, not answered as requests, so each request gets
     exactly one reply *)
  let edges = List.init 5 (fun _ -> "0 1 1") in
  let io, collected = scripted_io (("GRAPH u 1 5" :: edges) @ [ "PING" ]) in
  let _ = Server.run (service ()) io in
  match collected () with
  | [ err; pong ] ->
      check_bool "one ERR GRAPH line" true (has_prefix ~prefix:"ERR GRAPH" err);
      check_string "then the PING's reply" "PONG" pong
  | lines ->
      Alcotest.fail
        (Printf.sprintf "unexpected responses: %s" (String.concat " | " lines))

let test_server_weight_bound () =
  (* a 2-node graph packs the 96-tree cap; a weight past max_int / 96
     would overflow the packing's load comparison, so it is an ERR *)
  let bound = max_int / 96 in
  let io, collected =
    scripted_io
      [
        "GRAPH ok 2 1";
        Printf.sprintf "0 1 %d" bound;
        "SOLVE graph=ok";
        "GRAPH big 2 1";
        Printf.sprintf "0 1 %d" (bound + 1);
        "SOLVE graph=big";
        "PING";
      ]
  in
  let _ = Server.run (service ()) io in
  match collected () with
  | [ _; ok; _; err; pong ] ->
      check_bool "bound weight solves" true
        (has_prefix ~prefix:(Printf.sprintf "OK value=%d " bound) ok);
      check_bool "bound + 1 is ERR" true
        (has_prefix ~prefix:"ERR" err && contains ~sub:"max_int / 96" err);
      check_string "server keeps serving" "PONG" pong
  | lines ->
      Alcotest.fail
        (Printf.sprintf "unexpected responses: %s" (String.concat " | " lines))

(* [mincut_cli ARGS]: (exit status, stdout, stderr) *)
let run_cli args =
  let cli = "../bin/mincut_cli.exe" in
  let out, inp, err =
    Unix.open_process_args_full cli (Array.of_list (cli :: args))
      (Unix.environment ())
  in
  close_out inp;
  let stdout = In_channel.input_all out and stderr = In_channel.input_all err in
  let status = Unix.close_process_full (out, inp, err) in
  (status, stdout, stderr)

(* [mincut_cli ARGS FILE] on a temporary DIMACS file holding [graph],
   removed however the run ends *)
let run_cli_on ~graph args =
  let path = Filename.temp_file "mincut_cli" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc graph);
      run_cli (args @ [ path ]))

(* the CLI answers the same weight with an error line and exit 1, where
   it used to die on the uncaught Invalid_argument (exit 125) *)
let test_cli_weight_bound () =
  let status, stdout, stderr =
    run_cli_on ~graph:(Printf.sprintf "p 2 1\ne 0 1 %d\n" max_int) [ "solve" ]
  in
  check_bool "exits 1" true (status = Unix.WEXITED 1);
  check_string "no answer printed" "" stdout;
  check_string "one error line naming the bound"
    "mincut: error: Tree_packing.greedy: edge weight above max_int / 8\n" stderr

(* certifying floods a BFS tree, which a disconnected graph refuses up
   front: an error line and exit 1, where the flood used to run to the
   watchdog and exit 125 *)
let test_cli_certify_disconnected () =
  let status, _, stderr =
    run_cli_on ~graph:"p 6 4\ne 0 1 1\ne 1 2 1\ne 3 4 1\ne 4 5 2\n"
      [ "solve"; "--certify" ]
  in
  check_bool "exits 1" true (status = Unix.WEXITED 1);
  check_string "one error line"
    "mincut: error: Primitives.bfs_tree: disconnected graph\n" stderr

(* a session re-solves its live graph, which needs two nodes: a
   one-node base is an error line and exit 1, not an uncaught
   Invalid_argument (exit 125) *)
let test_cli_delta_one_node () =
  let status, stdout, stderr =
    run_cli [ "delta"; "--family"; "complete"; "--size"; "1" ]
  in
  check_bool "exits 1" true (status = Unix.WEXITED 1);
  check_string "no answer printed" "" stdout;
  check_string "one error line"
    "mincut: error: Mincut_seq.min_cut: need n >= 2\n" stderr

(* the commands that run one solver answer its refusal of a tiny or
   disconnected graph with an error line and exit 1, not an uncaught
   Invalid_argument (exit 125) *)
let test_cli_refusal cmd ~graph expected () =
  let status, stdout, stderr = run_cli_on ~graph [ cmd ] in
  check_bool "exits 1" true (status = Unix.WEXITED 1);
  check_string "no answer printed" "" stdout;
  check_string "one error line" ("mincut: error: " ^ expected ^ "\n") stderr

let test_protocol_parse_errors () =
  let is_err s = match Protocol.parse s with Error _ -> true | Ok _ -> false in
  check_bool "missing source" true (is_err "SOLVE algo=exact");
  check_bool "both sources" true (is_err "SOLVE graph=a family=ring");
  check_bool "bad int" true (is_err "SOLVE family=ring size=abc");
  check_bool "bad algo" true
    (Protocol.parse "SOLVE family=ring algo=Magic" = Error "unknown algorithm \"magic\"");
  check_bool "graph usage" true (is_err "GRAPH only-a-name");
  check_bool "n at the cap parses" true
    (Protocol.parse (Printf.sprintf "GRAPH u %d 1" Graph.max_nodes)
    = Ok (Protocol.Graph_def { name = "u"; n = Graph.max_nodes; m = 1 }));
  check_bool "n above the cap names the cap" true
    (Protocol.parse (Printf.sprintf "GRAPH u %d 1" (Graph.max_nodes + 1))
    = Error "GRAPH: n=4194305 is above the cap of 4194304 nodes");
  (* a header announces its m edge lines whether or not n is accepted *)
  List.iter
    (fun (line, k) ->
      check_int ("payload of " ^ line) k
        (match Protocol.parse_with_payload line with Error (_, k) -> k | Ok _ -> -1))
    [
      ("GRAPH u 1 5", 5);
      ("graph u 100000000000 1 # comment", 1);
      ("GRAPH u x 3", 3);
      ("GRAPH u 2 -1", 0);
      ("GRAPH u 2", 0);
      ("SOLVE family=ring size=abc", 0);
    ];
  check_bool "parse drops the payload" true
    (Protocol.parse "GRAPH u 1 5" = Error "GRAPH: bad <n> or <m>");
  check_bool "estimate needs a source" true (is_err "ESTIMATE seed=3");
  check_bool "estimate rejects trials=0" true
    (is_err "ESTIMATE family=ring trials=0");
  check_bool "estimate parses" true
    (Protocol.parse "ESTIMATE family=torus size=8 seed=3 trials=6"
    = Ok
        (Protocol.Estimate
           {
             Protocol.esource =
               Protocol.Family
                 { family = "torus"; size = 8; gseed = 0; weight_max = 1 };
             eseed = 3;
             etrials = Some 6;
           }));
  check_bool "blank is nop" true (Protocol.parse "   " = Ok Protocol.Nop);
  check_bool "comment is nop" true (Protocol.parse "# hi" = Ok Protocol.Nop)

(* ---- deadline shedding ------------------------------------------------ *)

(* An uncached request whose deadline has passed by drain time is shed,
   not solved; a cached one is answered anyway (hits are free). *)
let test_service_flush_sheds_expired () =
  let t = service () in
  let dead = Service.submit t (Request.make (Generators.grid 4 4) ~deadline:1.0) in
  let live = Service.submit t (Request.make (Generators.ring 9)) in
  let { Service.answered; shed } = Service.flush t in
  check_bool "expired ticket shed" true (List.mem dead shed);
  check_int "only the live request answered" 1 (List.length answered);
  check_bool "live ticket answered" true (List.mem_assoc live answered);
  let counter name = List.assoc name (Service.snapshot t).Metrics.counters in
  check_int "requests_shed counted" 1 (counter "requests_shed");
  (* warm the key, then submit the same expired request again: a cache
     hit costs nothing, so it is answered despite the deadline *)
  let _ = Service.solve t (Request.make (Generators.grid 4 4)) in
  let again = Service.submit t (Request.make (Generators.grid 4 4) ~deadline:1.0) in
  let { Service.answered = a2; shed = s2 } = Service.flush t in
  check_int "nothing shed on a hit" 0 (List.length s2);
  check_bool "expired-but-cached still answered" true (List.mem_assoc again a2);
  check_int "shed counter unchanged" 1 (counter "requests_shed")

let test_server_flush_shed_line () =
  let io, collected =
    scripted_io
      [
        "SUBMIT family=ring size=16 deadline-ms=-1000000";
        "SUBMIT family=complete size=5";
        "FLUSH";
      ]
  in
  let _ = Server.run (service ()) io in
  match collected () with
  | [ q0; q1; shed0; r1; done_line ] ->
      check_string "ticket 0" "QUEUED 0" q0;
      check_string "ticket 1" "QUEUED 1" q1;
      check_string "shed line precedes results" "SHED 0" shed0;
      check_bool "live result" true (has_prefix ~prefix:"RESULT 1 value=4" r1);
      check_string "done counts answered only" "DONE 1" done_line
  | lines ->
      Alcotest.fail
        (Printf.sprintf "unexpected responses: %s" (String.concat " | " lines))

(* ---- incremental sessions --------------------------------------------- *)

let test_service_session_metrics () =
  let t = service () in
  let _ = Service.session_open t "s" (Generators.torus 4 4) in
  let counter name = List.assoc name (Service.snapshot t).Metrics.counters in
  check_bool "session gauge" true
    (List.assoc "sessions_open" (Service.snapshot t).Metrics.gauges = 1.0);
  (* a weight increase answers incrementally; a removal forces a full
     re-solve — both count as applied deltas *)
  (match Service.session_delta t "s" (Delta.Add_edge { u = 0; v = 1; w = 2 }) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Service.session_delta t "s" (Delta.Remove_edge { u = 0; v = 1 }) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check_int "deltas applied" 2 (counter "deltas_applied");
  check_int "one incremental answer" 1 (counter "incremental_hits");
  check_int "one full resolve" 1 (counter "full_resolves");
  check_bool "unknown session is Error" true
    (Result.is_error
       (Service.session_delta t "nope" (Delta.Add_edge { u = 0; v = 1; w = 1 })));
  check_int "failed delta not counted" 2 (counter "deltas_applied")

(* a pure increase across the session's side re-solves the live graph,
   so it counts as a full resolve, not an incremental hit *)
let test_service_crossing_increase_resolves () =
  let t = service () in
  let s = Service.session_open t "s" (Generators.torus 4 4) in
  let counter name = List.assoc name (Service.snapshot t).Metrics.counters in
  let side = Api.session_side s in
  let e =
    match
      List.find_opt
        (fun e -> Bitset.mem side e.Graph.u <> Bitset.mem side e.Graph.v)
        (Array.to_list (Graph.edges (Generators.torus 4 4)))
    with
    | Some e -> e
    | None -> Alcotest.fail "torus 4x4 side crosses no edge"
  in
  (match Service.session_delta t "s" (Delta.Add_edge { u = e.Graph.u; v = e.Graph.v; w = 1 }) with
  | Ok (_, _, a) ->
      check_string "answered by a re-solve" "cert" (Mincut_core.Incremental.mode_name a.Api.mode)
  | Error e -> Alcotest.fail e);
  check_int "crossing increase is a full resolve" 1 (counter "full_resolves");
  check_int "no incremental hit" 0 (counter "incremental_hits")

(* A delta chain that returns to a previously-solved structure re-derives
   the same versioned key, so the solve is served from cache without
   running — the version-chain hit. *)
let test_service_version_chain_cache () =
  let t = service () in
  let s = Service.session_open t "s" (Generators.grid 4 4) in
  let solve () =
    match
      Service.session_solve t "s" ~algorithm:Api.Exact_small_lambda ~seed:0
        ~trees:None
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let r0 = solve () in
  check_bool "cold" false r0.Request.cached;
  let d = Handle.digest (Api.session_handle s) in
  (match Service.session_delta t "s" (Delta.Add_edge { u = 0; v = 5; w = 3 }) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Service.session_delta t "s" (Delta.Remove_edge { u = 0; v = 5 }) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check_bool "digest restored" true
    (Int64.equal d (Handle.digest (Api.session_handle s)));
  let r1 = solve () in
  check_bool "version-chain warm hit" true r1.Request.cached;
  check_string "same versioned key" r0.Request.key r1.Request.key;
  check_summaries_identical "chain hit bit-identical" r0.Request.summary
    r1.Request.summary

let test_protocol_parse_sessions () =
  let is_err s = match Protocol.parse s with Error _ -> true | Ok _ -> false in
  check_bool "session parses" true
    (Protocol.parse "SESSION s family=ring size=8"
    = Ok
        (Protocol.Session_open
           {
             sname = "s";
             ssource =
               Protocol.Family
                 { family = "ring"; size = 8; gseed = 0; weight_max = 1 };
           }));
  check_bool "session needs a source" true (is_err "SESSION s");
  check_bool "session rejects two sources" true
    (is_err "SESSION s graph=a family=ring");
  check_bool "delta parses" true
    (Protocol.parse "DELTA s add 0 1 2"
    = Ok
        (Protocol.Delta_op
           { sname = "s"; dop = Delta.Add_edge { u = 0; v = 1; w = 2 } }));
  check_bool "delta split parses" true
    (Protocol.parse "DELTA s split 3 2 1,4"
    = Ok
        (Protocol.Delta_op
           { sname = "s"; dop = Delta.Split_node { v = 3; w = 2; moved = [ 1; 4 ] } }));
  check_bool "delta rejects a bad verb" true (is_err "DELTA s frobnicate 1 2");
  check_bool "delta needs an op" true (is_err "DELTA s");
  check_bool "COMPACT is no verb" true (is_err "COMPACT s");
  check_bool "solve takes session= as a source" true
    (match Protocol.parse "SOLVE session=s" with
    | Ok (Protocol.Solve { source = Protocol.Session "s"; _ }) -> true
    | _ -> false);
  check_bool "solve rejects session+graph" true (is_err "SOLVE session=s graph=a")

let test_server_incremental_session () =
  let io, collected =
    scripted_io
      [
        "GRAPH tri 3 3";
        "0 1 1";
        "1 2 1";
        "0 2 1";
        "SESSION s graph=tri";
        "DELTA s add 0 1 1";
        "SOLVE session=s";
        "SOLVE session=s";
        "DELTA s remove 0 2";
        "SOLVE session=s";
        "SOLVE session=s";
        "DELTA nope add 0 1 1";
        "QUIT";
      ]
  in
  let reason = Server.run (service ()) io in
  check_bool "quit reason" true (reason = Server.Quit);
  match collected () with
  | [ graph_ok; session_ok; d1; s1; s2; d2; s3; s4; err; bye ] ->
      check_bool "graph registered" true (has_prefix ~prefix:"OK graph tri" graph_ok);
      check_bool "session opened at the snapshot" true
        (has_prefix ~prefix:"OK session s n=3 channels=3 lambda=2" session_ok);
      (* a weight increase keeps λ=2 and answers incrementally *)
      check_bool "delta answers λ" true
        (has_prefix ~prefix:"OK delta s version=1 lambda=2" d1
        && contains ~sub:"mode=" d1);
      check_bool "cold session solve" true
        (has_prefix ~prefix:"OK value=2" s1 && contains ~sub:"cached=false" s1);
      check_bool "anchored repeat is warm" true
        (has_prefix ~prefix:"OK value=2" s2 && contains ~sub:"cached=true" s2);
      (* a removal drops λ to 1 and forces the full-re-solve tier *)
      check_bool "removal resolves from scratch" true
        (has_prefix ~prefix:"OK delta s version=2 lambda=1 mode=resolved" d2);
      check_bool "post-removal solve is fresh" true
        (has_prefix ~prefix:"OK value=1" s3 && contains ~sub:"cached=false" s3);
      check_bool "repeat solve after the removal is cached" true
        (has_prefix ~prefix:"OK value=1" s4 && contains ~sub:"cached=true" s4);
      check_bool "unknown session is ERR" true (has_prefix ~prefix:"ERR" err);
      check_string "bye" "BYE" bye
  | lines ->
      Alcotest.fail
        (Printf.sprintf "unexpected response count %d: %s" (List.length lines)
           (String.concat " | " lines))

(* ---- qcheck properties ----------------------------------------------- *)

let qcheck_tests =
  [
    qtest ~count:60 "structural hash invariant under edge permutation"
      QCheck2.Gen.(pair (arbitrary_connected ~max_n:12 ()) (int_range 0 1_000_000))
      (fun (g, seed) ->
        Graph_key.structural_hash g
        = Graph_key.structural_hash (shuffled_copy ~seed g));
    qtest ~count:25 "cached solve is bit-identical to a fresh solve"
      QCheck2.Gen.(pair (arbitrary_connected ~max_n:10 ()) (int_range 0 3))
      (fun (g, algo_pick) ->
        let algorithm =
          match algo_pick with
          | 0 -> Api.Exact_small_lambda
          | 1 -> Api.Exact_two_respect
          | 2 -> Api.Approx 0.5
          | _ -> Api.Ghaffari_kuhn 0.5
        in
        let t = service () in
        let r1 = Service.solve t (Request.make ~algorithm ~seed:11 g) in
        (* same structure, permuted presentation: must hit and answer
           identically *)
        let r2 =
          Service.solve t (Request.make ~algorithm ~seed:11 (shuffled_copy ~seed:99 g))
        in
        let fresh =
          Api.min_cut ~params:(Service.config t).Service.params ~algorithm
            ~seed:11
            (Graph_key.canonicalize g)
        in
        (not r1.Request.cached) && r2.Request.cached
        && r1.Request.summary.Api.value = fresh.Api.value
        && r1.Request.summary.Api.rounds = fresh.Api.rounds
        && Bitset.equal r1.Request.summary.Api.side fresh.Api.side
        && r1.Request.summary.Api.breakdown = fresh.Api.breakdown
        && r2.Request.summary.Api.value = fresh.Api.value
        && r2.Request.summary.Api.rounds = fresh.Api.rounds
        && Bitset.equal r2.Request.summary.Api.side fresh.Api.side);
    qtest ~count:40 "canonicalize preserves structure"
      (arbitrary_connected ~max_n:12 ())
      (fun g -> Graph.equal_structure g (Graph_key.canonicalize g));
    (* the static exception-boundary proof (Exnflow's serve-total policy)
       starts at [handle_command]; this is the dynamic complement for the
       layer below it: [parse] must be total on arbitrary bytes, junk
       after a real verb included, answering Ok or Error but never
       raising *)
    qtest ~count:500 "protocol parse is total on random bytes"
      QCheck2.Gen.(pair (string_size ~gen:char (int_range 0 80)) (int_range 0 6))
      (fun (junk, pick) ->
        let line =
          match pick with
          | 0 -> junk
          | 1 -> "SOLVE " ^ junk
          | 2 -> "GRAPH " ^ junk
          | 3 -> "SESSION " ^ junk
          | 4 -> "DELTA " ^ junk
          | 5 -> "ESTIMATE " ^ junk
          | _ -> "SUBMIT " ^ junk
        in
        match Protocol.parse line with Ok _ | Error _ -> true);
  ]

let suite =
  [
    tc "cache: LRU eviction order" test_lru_eviction_order;
    tc "cache: entry bound" test_lru_entry_bound;
    tc "cache: cost bound" test_lru_cost_bound;
    tc "cache: replace and hit/miss counters" test_cache_replace_and_counters;
    tc "hash: sensitive to weights, size, multiplicity" test_hash_sensitivity;
    tc "hash: canonicalize idempotent" test_canonicalize_idempotent;
    tc "hash: cache keys pinned" test_cache_keys_pinned;
    tc "metrics: counters and gauges" test_metrics_counters_gauges;
    tc "metrics: latency quantiles" test_metrics_quantiles;
    tc "metrics: JSON line round-trip" test_metrics_json_roundtrip;
    tc "json: parser round-trip and rejections" test_json_parser;
    tc "scheduler: priority order and coalescing" test_scheduler_priority_and_coalescing;
    tc "scheduler: deadline ordering" test_scheduler_deadline_order;
    tc "pool: parallel map matches sequential" test_pool_matches_sequential;
    tc "pool: exceptions propagate" test_pool_exception_propagates;
    tc "service: cache hit bit-identical" test_service_cache_hit_identical;
    tc "service: cache hit span tree bit-identical" test_service_cache_hit_span_tree;
    tc "service: flush coalesces and answers in order" test_service_flush_batches;
    tc "service: metrics accounting" test_service_metrics_accounting;
    tc "service: deadline misses counted" test_service_deadline_missed;
    tc "server: scripted session" test_server_session;
    tc "server: submit/flush protocol" test_server_submit_flush;
    tc "server: malformed GRAPH payload drained" test_server_graph_payload_drained;
    tc "server: oversized GRAPH header is an error" test_server_oversized_graph_header;
    tc "server: rejected GRAPH header drains its edge lines"
      test_server_rejected_header_drained;
    tc "server: weight past the packing bound is ERR" test_server_weight_bound;
    tc "protocol: parse errors" test_protocol_parse_errors;
    tc "service: expired requests shed at flush" test_service_flush_sheds_expired;
    tc "server: SHED lines in FLUSH" test_server_flush_shed_line;
    tc "service: session metrics accounting" test_service_session_metrics;
    tc "service: version-chain cache hit" test_service_version_chain_cache;
    tc "protocol: SESSION/DELTA parse" test_protocol_parse_sessions;
    tc "server: scripted incremental session" test_server_incremental_session;
  ]
  @ qcheck_tests
  @ [
      tc "cli: solve refuses a weight past the packing bound" test_cli_weight_bound;
      tc "cli: certify on a disconnected graph is an error" test_cli_certify_disconnected;
      tc "cli: delta on a one-node graph is an error" test_cli_delta_one_node;
      tc "service: crossing increase counts as a full resolve"
        test_service_crossing_increase_resolves;
      tc "cli: estimate on a one-node graph is an error"
        (test_cli_refusal "estimate" ~graph:"p 1 0\n" "Sample_estimate.run: need n >= 2");
      tc "cli: info on a one-node graph is an error"
        (test_cli_refusal "info" ~graph:"p 1 0\n" "Stoer_wagner.run: need n >= 2");
      tc "cli: a DIMACS header above the node cap is a bare error line"
        (test_cli_refusal "info" ~graph:"p 5000000 0\n"
           "Dimacs.read: line 1: n=5000000 is above the cap of 4194304 nodes");
      tc "cli: trace on a disconnected graph is an error"
        (test_cli_refusal "trace" ~graph:"p 4 2\ne 0 1 1\ne 2 3 1\n"
           "Primitives.bfs_tree: disconnected graph");
    ]
