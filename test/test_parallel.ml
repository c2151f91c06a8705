(* The determinism contract of the shared pool: fanning work over
   domains changes throughput, never answers.  Every pipeline that takes
   a pool is checked bit-for-bit against its sequential run. *)

open Test_helpers
module Pool = Mincut_parallel.Pool
module Bitset = Mincut_util.Bitset
module Cost = Mincut_congest.Cost
module Exact = Mincut_core.Exact
module Approx = Mincut_core.Approx
module Two_respect = Mincut_core.Two_respect
module Api = Mincut_core.Api
module Params = Mincut_core.Params

let pool2 = Pool.create ~workers:2 ()
let pool4 = Pool.create ~workers:4 ()

let equal_cost (a : Cost.t) (b : Cost.t) =
  (* full span-tree equality: labels, rounds, provenance, audits *)
  Cost.equal a b
  && List.equal
       (fun (la, ra) (lb, rb) -> String.equal la lb && ra = rb)
       (Cost.breakdown a) (Cost.breakdown b)

let test_pool_map_order () =
  let jobs = Array.init 100 (fun i -> i) in
  let seq = Pool.map Pool.sequential (fun i -> i * i) jobs in
  let par = Pool.map pool4 (fun i -> i * i) jobs in
  check_bool "results in input order" true (seq = par)

let test_pool_first_exception () =
  let jobs = Array.init 20 (fun i -> i) in
  match Pool.map pool4 (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i) jobs with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg -> check_bool "lowest-index exception wins" true (msg = "3")

let test_pool_sizing () =
  (* pure sizing policy: never oversubscribe a 1-core host, cap wide ones *)
  check_int "recommended 0 is sequential" 1 (Pool.sizing ~recommended:0);
  check_int "recommended 1 is sequential" 1 (Pool.sizing ~recommended:1);
  check_int "recommended 2" 2 (Pool.sizing ~recommended:2);
  check_int "recommended 4" 4 (Pool.sizing ~recommended:4);
  check_int "recommended 64 capped at 8" 8 (Pool.sizing ~recommended:64);
  check_int "default pool width follows sizing"
    (Pool.recommended_workers ())
    (Pool.workers (Pool.create ()))

let test_pool_task_accounting () =
  (* every job runs exactly once through the counted entry point,
     parallel or not *)
  let jobs = Array.init 123 Fun.id in
  let t0 = (Pool.stats ()).Pool.tasks in
  ignore (Pool.map pool4 (fun i -> i) jobs);
  let t1 = (Pool.stats ()).Pool.tasks in
  check_int "parallel map counts each job once" 123 (t1 - t0);
  ignore (Pool.map Pool.sequential (fun i -> i) jobs);
  let t2 = (Pool.stats ()).Pool.tasks in
  check_int "sequential map counts each job once" 123 (t2 - t1)

let test_pool_reuse_across_solves () =
  (* the persistent pool spawns its helper domains once; later solves
     push work through the same domains instead of spawning fresh ones *)
  let g = Generators.torus 4 4 in
  ignore (Exact.run ~params:Params.fast ~pool:pool4 g);
  let s1 = Pool.stats () in
  ignore (Exact.run ~params:Params.fast ~pool:pool4 g);
  ignore (Two_respect.min_cut ~params:Params.fast ~pool:pool4 g);
  let s2 = Pool.stats () in
  check_int "no new domains after warmup" 0 (s2.Pool.spawns - s1.Pool.spawns);
  check_bool "task counter advances across solves" true
    (s2.Pool.tasks > s1.Pool.tasks);
  check_bool "batch counter advances across solves" true
    (s2.Pool.batches > s1.Pool.batches)

let test_pool_nested_map () =
  (* a map issued from inside a job runs inline on whichever participant
     claimed the job: input-order results, and no new domain *)
  ignore (Pool.map pool4 Fun.id (Array.init 8 Fun.id));
  let s0 = Pool.stats () in
  let inner i = Pool.map pool4 (fun j -> (i, j)) (Array.init 5 Fun.id) in
  let got = Pool.map pool4 inner (Array.init 12 Fun.id) in
  let s1 = Pool.stats () in
  check_bool "nested results in input order" true
    (got = Array.init 12 (fun i -> Array.init 5 (fun j -> (i, j))));
  check_int "nested map spawns no domain" 0 (s1.Pool.spawns - s0.Pool.spawns)

let test_pool_fewer_jobs_than_width () =
  (* width 4 over 1 and 2 jobs: the batch narrows to the job count, so
     one job runs inline and two take a single helper *)
  check_bool "one job" true (Pool.map pool4 (fun i -> i + 1) [| 41 |] = [| 42 |]);
  check_bool "two jobs" true (Pool.map pool4 (fun i -> i * 10) [| 1; 2 |] = [| 10; 20 |])

let test_pool_concurrent_callers () =
  (* two domains submitting to the shared runtime at once each get their
     own results back, in their own input order *)
  let jobs k = Array.init 200 (fun i -> (k * 1000) + i) in
  let call k () = Pool.map pool2 (fun x -> x * x) (jobs k) in
  let a = Domain.spawn (call 1) and b = Domain.spawn (call 2) in
  let ra = Domain.join a and rb = Domain.join b in
  check_bool "first caller's results" true (ra = Array.map (fun x -> x * x) (jobs 1));
  check_bool "second caller's results" true (rb = Array.map (fun x -> x * x) (jobs 2))

let prop_skewed_bit_identity =
  (* adversarial task-size skew: a few heavy jobs among many light ones
     means participants finish their claims at very different times;
     results must still come back in input order at every width *)
  qtest ~count:30 "pool: skewed task sizes identical at workers 1/2/4"
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 200))
    (fun sizes ->
      let jobs = Array.of_list sizes in
      let work n =
        let acc = ref 0 in
        for i = 1 to n * 50 do
          acc := !acc + (i * i mod 97)
        done;
        (n, !acc)
      in
      let seq = Pool.map Pool.sequential work jobs in
      seq = Pool.map pool2 work jobs && seq = Pool.map pool4 work jobs)

let test_api_rejects_bad_workers () =
  let g = Generators.path 3 in
  check_bool "workers 0 rejected" true
    (try
       ignore (Api.min_cut ~workers:0 g);
       false
     with Invalid_argument _ -> true)

let test_approx_rejects_bad_trials () =
  let g = Generators.path 3 in
  check_bool "trials 0 rejected" true
    (try
       ignore (Approx.run ~trials:0 ~rng:(Rng.create 0) ~epsilon:0.5 g);
       false
     with Invalid_argument _ -> true)

let equal_exact (a : Exact.result) (b : Exact.result) =
  a.Exact.value = b.Exact.value
  && Bitset.equal a.Exact.side b.Exact.side
  && a.Exact.best_tree = b.Exact.best_tree
  && a.Exact.trees_used = b.Exact.trees_used
  && equal_cost a.Exact.cost b.Exact.cost
  && a.Exact.stats = b.Exact.stats

let prop_exact_parallel =
  qtest ~count:25 "exact: workers 2 and 4 bit-identical to sequential"
    (arbitrary_connected ~max_n:12 ())
    (fun g ->
      let seq = Exact.run ~params:Params.fast g in
      equal_exact seq (Exact.run ~params:Params.fast ~pool:pool2 g)
      && equal_exact seq (Exact.run ~params:Params.fast ~pool:pool4 g))

let equal_approx (a : Approx.result) (b : Approx.result) =
  a.Approx.value = b.Approx.value
  && Bitset.equal a.Approx.side b.Approx.side
  && a.Approx.p = b.Approx.p
  && a.Approx.skeleton_value = b.Approx.skeleton_value
  && a.Approx.guesses = b.Approx.guesses
  && equal_cost a.Approx.cost b.Approx.cost

let prop_approx_parallel =
  qtest ~count:15 "approx: workers=4 bit-identical (trials 1 and 3)"
    QCheck2.Gen.(pair (arbitrary_connected ~max_n:10 ()) (int_range 0 1_000_000))
    (fun (g, seed) ->
      let run ~pool ~trials =
        Approx.run ~params:Params.fast ~trees:8 ~pool ~trials
          ~rng:(Rng.create seed) ~epsilon:0.8 g
      in
      equal_approx (run ~pool:Pool.sequential ~trials:1) (run ~pool:pool4 ~trials:1)
      && equal_approx (run ~pool:Pool.sequential ~trials:3) (run ~pool:pool4 ~trials:3))

let equal_two_respect (a : Two_respect.result) (b : Two_respect.result) =
  a.Two_respect.value = b.Two_respect.value
  && Bitset.equal a.Two_respect.side b.Two_respect.side
  && a.Two_respect.kind = b.Two_respect.kind
  && equal_cost a.Two_respect.cost b.Two_respect.cost

let prop_two_respect_parallel =
  qtest ~count:20 "two-respect: workers=4 bit-identical to sequential"
    (arbitrary_connected ~max_n:12 ())
    (fun g ->
      equal_two_respect
        (Two_respect.min_cut ~params:Params.fast g)
        (Two_respect.min_cut ~params:Params.fast ~pool:pool4 g))

(* a packing that repeats trees: each distinct tree is solved once, and
   the solved results land in every slot that repeats it, at any width *)
let test_repeated_trees_parallel () =
  let g = Generators.path_of_cliques ~clique:8 ~length:16 in
  check_bool "exact: workers 2 = sequential" true
    (equal_exact
       (Exact.run ~params:Params.fast g)
       (Exact.run ~params:Params.fast ~pool:pool2 g));
  check_bool "two-respect: workers 2 = sequential" true
    (equal_two_respect
       (Two_respect.min_cut ~params:Params.fast ~trees:24 g)
       (Two_respect.min_cut ~params:Params.fast ~trees:24 ~pool:pool2 g))

let prop_api_workers =
  qtest ~count:15 "api: min_cut summaries identical for any worker count"
    QCheck2.Gen.(pair (arbitrary_connected ~max_n:10 ()) (int_range 0 2))
    (fun (g, pick) ->
      let algorithm =
        match pick with
        | 0 -> Api.Exact_small_lambda
        | 1 -> Api.Exact_two_respect
        | _ -> Api.Approx 0.8
      in
      let s = Api.min_cut ~params:Params.fast ~algorithm ~seed:7 g in
      let p = Api.min_cut ~params:Params.fast ~algorithm ~seed:7 ~workers:4 g in
      s.Api.value = p.Api.value
      && Bitset.equal s.Api.side p.Api.side
      && s.Api.rounds = p.Api.rounds
      && s.Api.breakdown = p.Api.breakdown)

let suite =
  [
    tc "pool: map preserves input order" test_pool_map_order;
    tc "exact: repeated packing trees identical at workers 1 and 2"
      test_repeated_trees_parallel;
    tc "pool: first exception is re-raised" test_pool_first_exception;
    tc "pool: sizing policy" test_pool_sizing;
    tc "pool: task accounting" test_pool_task_accounting;
    tc "pool: domains reused across solves" test_pool_reuse_across_solves;
    tc "api: rejects workers < 1" test_api_rejects_bad_workers;
    tc "approx: rejects trials < 1" test_approx_rejects_bad_trials;
    prop_skewed_bit_identity;
    prop_exact_parallel;
    prop_approx_parallel;
    prop_two_respect_parallel;
    prop_api_workers;
    tc "pool: nested map runs inline" test_pool_nested_map;
    tc "pool: width 4 over 1 and 2 jobs" test_pool_fewer_jobs_than_width;
    tc "pool: concurrent callers get their own results"
      test_pool_concurrent_callers;
  ]
