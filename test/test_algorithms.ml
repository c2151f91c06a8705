open Test_helpers
module Exact = Mincut_core.Exact
module Approx = Mincut_core.Approx
module Ghaffari_kuhn = Mincut_core.Ghaffari_kuhn
module Su = Mincut_core.Su
module Api = Mincut_core.Api
module Params = Mincut_core.Params
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Bitset = Mincut_util.Bitset
module Rng = Mincut_util.Rng
module Cost = Mincut_congest.Cost

let lambda_of g = (Stoer_wagner.run g).Stoer_wagner.value

let known_lambda =
  [
    ("path", Generators.path 8, 1);
    ("ring", Generators.ring 9, 2);
    ("complete6", Generators.complete 6, 5);
    ("grid4x5", Generators.grid 4 5, 2);
    ("torus4x4", Generators.torus 4 4, 4);
    ("hypercube3", Generators.hypercube 3, 3);
    ("wheel8", Generators.wheel 8, 3);
    ("barbell5", Generators.barbell 5, 1);
    ("path-of-cliques", Generators.path_of_cliques ~clique:5 ~length:4, 2);
  ]

(* ---- Exact --------------------------------------------------------- *)

let test_exact_known_families () =
  List.iter
    (fun (name, g, lambda) ->
      let r = Exact.run ~params:Params.fast g in
      check_int (name ^ " exact λ") lambda r.Exact.value;
      check_int (name ^ " side consistent") lambda (Graph.cut_of_bitset g r.Exact.side))
    known_lambda

let test_exact_weighted () =
  let g =
    Graph.create ~n:6
      [
        (0, 1, 10); (1, 2, 10); (0, 2, 10);
        (3, 4, 10); (4, 5, 10); (3, 5, 10);
        (0, 3, 2); (2, 5, 3);
      ]
  in
  check_int "weighted exact" 5 (Exact.run ~params:Params.fast g).Exact.value

let test_exact_small_suite () =
  List.iter
    (fun (name, g) ->
      let r = Exact.run ~params:Params.fast g in
      check_int (name ^ " = stoer-wagner") (lambda_of g) r.Exact.value)
    (small_connected_graphs ())

let test_exact_disconnected () =
  let g = Graph.create ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  let r = Exact.run g in
  check_int "zero cut" 0 r.Exact.value;
  check_int "component side" 2 (Bitset.cardinal r.Exact.side);
  (* every Api algorithm answers with that same 0-cut *)
  List.iter
    (fun algorithm ->
      let name = Api.algorithm_name algorithm in
      let s = Api.min_cut ~algorithm g in
      check_int (name ^ ": zero cut") 0 s.Api.value;
      check_bool (name ^ ": component side") true (Bitset.equal r.Exact.side s.Api.side);
      check_bool (name ^ ": component-detection span") true (Cost.equal r.Exact.cost s.Api.cost);
      check_bool (name ^ ": verifies") true (Api.verify g s))
    [
      Api.Exact_small_lambda;
      Api.Exact_two_respect;
      Api.Approx 0.5;
      Api.Ghaffari_kuhn 0.5;
      Api.Su 0.5;
    ]

let test_exact_planted_lambda_sweep () =
  let rng = Rng.create 21 in
  List.iter
    (fun k ->
      let g = Generators.planted_cut ~rng ~n:30 ~cut_edges:k ~p_in:0.8 () in
      let r = Exact.run ~params:Params.fast g in
      check_int (Printf.sprintf "planted k=%d" k) (lambda_of g) r.Exact.value)
    [ 1; 2; 3; 4; 5 ]

let test_exact_cost_includes_packing () =
  let g = Generators.grid 5 5 in
  let r = Exact.run ~params:Params.fast ~trees:4 g in
  check_int "trees used" 4 r.Exact.trees_used;
  check_bool "packing charged" true
    (List.exists
       (fun (l, _) -> String.length l >= 12 && String.sub l 0 12 = "tree packing")
       (Cost.breakdown r.Exact.cost))

let test_exact_more_trees_never_worse () =
  let rng = Rng.create 33 in
  for _ = 1 to 5 do
    let g = Generators.gnp_connected ~rng 16 0.4 in
    let v4 = (Exact.run ~params:Params.fast ~trees:4 g).Exact.value in
    let v16 = (Exact.run ~params:Params.fast ~trees:16 g).Exact.value in
    check_bool "monotone improvement" true (v16 <= v4)
  done

(* ---- Approx -------------------------------------------------------- *)

let test_approx_quality_known () =
  let epsilon = 0.5 in
  List.iter
    (fun (name, g, lambda) ->
      let rng = Rng.create 7 in
      let r = Approx.run ~params:Params.fast ~rng ~epsilon g in
      check_bool (name ^ " >= λ") true (r.Approx.value >= lambda);
      check_bool
        (Printf.sprintf "%s approx %d <= (1+ε)λ+1 = %.1f" name r.Approx.value
           ((1.0 +. epsilon) *. float_of_int lambda +. 1.0))
        true
        (float_of_int r.Approx.value <= ((1.0 +. epsilon) *. float_of_int lambda) +. 1.0);
      check_int (name ^ " side consistent") r.Approx.value (Graph.cut_of_bitset g r.Approx.side))
    known_lambda

let test_approx_small_cut_degenerates_to_exact () =
  (* λ=1 forces p=1 (the guard) — the exact path is taken *)
  let g = Generators.barbell 5 in
  let rng = Rng.create 1 in
  let r = Approx.run ~params:Params.fast ~rng ~epsilon:0.3 g in
  check_int "exact on tiny cut" 1 r.Approx.value;
  check_bool "p = 1" true (r.Approx.p = 1.0)

let test_approx_rejects_bad_epsilon () =
  check_bool "epsilon <= 0" true
    (try
       ignore (Approx.run ~rng:(Rng.create 0) ~epsilon:0.0 (Generators.ring 4));
       false
     with Invalid_argument _ -> true)

(* ---- Ghaffari–Kuhn -------------------------------------------------- *)

let test_gk_guarantee_known () =
  let epsilon = 0.5 in
  List.iter
    (fun (name, g, lambda) ->
      let r = Ghaffari_kuhn.run ~epsilon g in
      check_bool (name ^ " >= λ") true (r.Ghaffari_kuhn.value >= lambda);
      check_bool
        (Printf.sprintf "%s gk %d <= (2+ε)λ = %.1f" name r.Ghaffari_kuhn.value
           ((2.0 +. epsilon) *. float_of_int lambda))
        true
        (float_of_int r.Ghaffari_kuhn.value <= (2.0 +. epsilon) *. float_of_int lambda);
      check_int (name ^ " side consistent") r.Ghaffari_kuhn.value
        (Graph.cut_of_bitset g r.Ghaffari_kuhn.side))
    (known_lambda
    @ [
        (* weighted path whose light middle edge is λ: Matula must
           contract the heavy ends to get below δ = 3 *)
        ("heavy-ended path", Graph.create ~n:4 [ (0, 1, 3); (1, 3, 1); (2, 3, 3) ], 1);
      ])

let test_gk_guarantee_random () =
  let rng = Rng.create 43 in
  for _ = 1 to 20 do
    let g = Generators.gnp_connected ~rng 18 0.4 in
    let lambda = lambda_of g in
    let r = Ghaffari_kuhn.run ~epsilon:0.2 g in
    check_bool "within [λ, 2.2λ]" true
      (r.Ghaffari_kuhn.value >= lambda
      && float_of_int r.Ghaffari_kuhn.value <= 2.2 *. float_of_int lambda)
  done

let test_gk_iterations_logarithmic () =
  let rng = Rng.create 44 in
  let g = Generators.gnp_connected ~rng 100 0.2 in
  let r = Ghaffari_kuhn.run ~epsilon:0.5 g in
  check_bool
    (Printf.sprintf "iterations %d small" r.Ghaffari_kuhn.iterations)
    true
    (r.Ghaffari_kuhn.iterations <= 20)

(* ---- Su -------------------------------------------------------------- *)

let test_su_valid_cut_known () =
  List.iter
    (fun (name, g, lambda) ->
      let rng = Rng.create 3 in
      let r = Su.run ~rng ~epsilon:0.5 g in
      check_bool (name ^ " >= λ") true (r.Su.value >= lambda);
      check_int (name ^ " side consistent") r.Su.value (Graph.cut_of_bitset g r.Su.side);
      check_bool (name ^ " sampled") true (r.Su.samples > 0))
    known_lambda

let test_su_finds_bridges_exactly () =
  (* λ = 1 graphs: the bridge side must be found *)
  let rng = Rng.create 5 in
  List.iter
    (fun (name, g) ->
      let r = Su.run ~rng ~epsilon:0.5 g in
      check_int (name ^ " unit cut found") 1 r.Su.value)
    [ ("barbell6", Generators.barbell 6); ("dumbbell5-3", Generators.dumbbell 5 3) ]

let test_su_reasonable_on_random () =
  let rng = Rng.create 47 in
  for _ = 1 to 10 do
    let g = Generators.gnp_connected ~rng 20 0.4 in
    let lambda = lambda_of g in
    let r = Su.run ~rng ~epsilon:0.3 g in
    check_bool
      (Printf.sprintf "su %d within 2λ=%d" r.Su.value (2 * lambda))
      true
      (r.Su.value >= lambda && r.Su.value <= max (2 * lambda) (lambda + 2))
  done

(* ---- Api -------------------------------------------------------------- *)

let test_api_all_algorithms_verify () =
  let g = Generators.torus 4 4 in
  List.iter
    (fun alg ->
      let s = Api.min_cut ~params:Params.fast ~algorithm:alg g in
      check_bool (Api.algorithm_name alg ^ " verifies") true (Api.verify g s);
      check_bool (Api.algorithm_name alg ^ " rounds > 0") true (s.Api.rounds > 0))
    [ Api.Exact_small_lambda; Api.Exact_two_respect; Api.Approx 0.5;
      Api.Ghaffari_kuhn 0.5; Api.Su 0.5 ]

let test_api_default_exact () =
  let g = Generators.ring 8 in
  let s = Api.min_cut ~params:Params.fast g in
  check_int "default exact" 2 s.Api.value

let test_api_seed_determinism () =
  let g = Generators.torus 4 4 in
  let a = Api.min_cut ~params:Params.fast ~algorithm:(Api.Approx 0.4) ~seed:9 g in
  let b = Api.min_cut ~params:Params.fast ~algorithm:(Api.Approx 0.4) ~seed:9 g in
  check_int "same seed same value" a.Api.value b.Api.value;
  check_int "same rounds" a.Api.rounds b.Api.rounds

let test_api_verify_rejects_lies () =
  let g = Generators.ring 6 in
  let s = Api.min_cut ~params:Params.fast g in
  let lie = { s with Api.value = s.Api.value + 1 } in
  check_bool "lie detected" false (Api.verify g lie)

let test_approx_statistical () =
  (* 15 seeds on a planted λ=5 instance: every run must stay within the
     (1+ε) guarantee (+1 additive slack for the w.h.p. statement) *)
  let epsilon = 0.4 in
  let g = Generators.planted_cut ~rng:(Rng.create 77) ~n:96 ~cut_edges:5 ~p_in:0.5 () in
  let lambda = lambda_of g in
  for seed = 1 to 15 do
    let r = Approx.run ~params:Params.fast ~trees:16 ~rng:(Rng.create seed) ~epsilon g in
    check_bool
      (Printf.sprintf "seed %d: %d within (1+ε)λ" seed r.Approx.value)
      true
      (r.Approx.value >= lambda
      && float_of_int r.Approx.value <= ((1.0 +. epsilon) *. float_of_int lambda) +. 1.0)
  done

let test_exact_cost_breakdown_has_leader () =
  let g = Generators.ring 12 in
  let r = Exact.run g in
  check_bool "leader election charged" true
    (List.exists
       (fun (l, _) -> String.length l >= 6 && String.sub l 0 6 = "leader")
       (Cost.breakdown r.Exact.cost))

let qcheck_tests =
  [
    qtest ~count:40 "exact = stoer-wagner (random)" (arbitrary_connected ~max_n:12 ())
      (fun g ->
        (Exact.run ~params:Params.fast g).Exact.value = lambda_of g);
    qtest ~count:30 "three-way agreement: 1-respect = 2-respect = stoer-wagner"
      (arbitrary_connected ~max_n:11 ())
      (fun g ->
        let sw = lambda_of g in
        (Exact.run ~params:Params.fast g).Exact.value = sw
        && (Mincut_core.Two_respect.min_cut ~params:Params.fast g)
             .Mincut_core.Two_respect.value = sw);
    qtest ~count:25 "gk within [λ, (2+ε)λ] (random)" (arbitrary_connected ~max_n:12 ())
      (fun g ->
        let lambda = lambda_of g in
        let r = Ghaffari_kuhn.run ~epsilon:0.3 g in
        r.Ghaffari_kuhn.value >= lambda
        && float_of_int r.Ghaffari_kuhn.value <= 2.3 *. float_of_int lambda);
    qtest ~count:25 "su returns genuine cuts" (arbitrary_connected ~max_n:12 ())
      (fun g ->
        let rng = Rng.create 11 in
        let r = Su.run ~rng ~epsilon:0.5 g in
        Graph.cut_of_bitset g r.Su.side = r.Su.value && r.Su.value >= lambda_of g);
  ]

(* [Exact.run] and [Two_respect.min_cut] gather their per-tree groups
   and sum them once; the span tree must equal the left fold of
   [Cost.( ++ )] it replaced, on a 200-tree packing with repeats. *)
let test_sweep_sum_equals_fold () =
  let module Tree_packing = Mincut_treepack.Tree_packing in
  let module One_respect = Mincut_core.One_respect in
  let module Two_respect = Mincut_core.Two_respect in
  let g = Generators.torus 3 3 in
  let trees = 200 in
  let slot, reps = Tree_packing.distinct (Tree_packing.greedy g ~trees) in
  let tree_of ids = Tree.of_edge_ids g ~root:0 ids in
  let fold label cost_of runs =
    snd
      (Array.fold_left
         (fun (i, sweep) s ->
           (i + 1, Cost.( ++ ) sweep (Cost.group (label (i + 1)) (cost_of runs.(s)))))
         (0, Cost.zero) slot)
  in
  let child label (c : Cost.t) =
    match List.filter (fun (sp : Cost.span) -> sp.Cost.label = label) c.Cost.spans with
    | [ sp ] -> { Cost.rounds = sp.Cost.rounds; spans = [ sp ] }
    | _ -> Alcotest.failf "no single %S span" label
  in
  let backbone = One_respect.backbone g ~root:0 in
  let ones = Array.map (fun ids -> One_respect.run ~backbone g (tree_of ids)) reps in
  let want =
    Cost.group "per-tree 1-respecting cuts"
      (fold
         (Printf.sprintf "tree %d: 1-respecting cut (Theorem 2.1)")
         (fun (r : One_respect.result) -> r.One_respect.cost)
         ones)
  in
  check_bool "exact: sum = fold" true
    (Cost.equal want (child "per-tree 1-respecting cuts" (Exact.run g ~trees).Exact.cost));
  let twos = Array.map (fun ids -> Two_respect.run g (tree_of ids)) reps in
  let want =
    Cost.group "per-tree 2-respect sweeps"
      (fold
         (Printf.sprintf "tree %d: 2-respect sweep")
         (fun (r : Two_respect.result) -> r.Two_respect.cost)
         twos)
  in
  check_bool "two-respect: sum = fold" true
    (Cost.equal want
       (child "per-tree 2-respect sweeps" (Two_respect.min_cut g ~trees).Two_respect.cost))

let suite =
  [
    tc "exact: known families" test_exact_known_families;
    tc "exact: weighted" test_exact_weighted;
    tc "exact: full small suite" test_exact_small_suite;
    tc "exact: disconnected" test_exact_disconnected;
    tc "exact: planted λ sweep" test_exact_planted_lambda_sweep;
    tc "exact: cost includes packing" test_exact_cost_includes_packing;
    tc "exact: more trees never worse" test_exact_more_trees_never_worse;
    tc "approx: quality on known families" test_approx_quality_known;
    tc "approx: degenerates to exact for tiny λ" test_approx_small_cut_degenerates_to_exact;
    tc "approx: rejects bad epsilon" test_approx_rejects_bad_epsilon;
    tc "gk: (2+ε) guarantee on known families" test_gk_guarantee_known;
    tc "gk: guarantee on random graphs" test_gk_guarantee_random;
    tc "gk: few iterations" test_gk_iterations_logarithmic;
    tc "su: valid cuts on known families" test_su_valid_cut_known;
    tc "su: finds bridges exactly" test_su_finds_bridges_exactly;
    tc "su: reasonable on random graphs" test_su_reasonable_on_random;
    tc "api: all algorithms verify" test_api_all_algorithms_verify;
    tc "api: default exact" test_api_default_exact;
    tc "api: seed determinism" test_api_seed_determinism;
    tc "api: verify rejects lies" test_api_verify_rejects_lies;
    tc_slow "approx: statistical guarantee over seeds" test_approx_statistical;
    tc "exact: leader election in the bill" test_exact_cost_breakdown_has_leader;
    tc "exact: per-tree sweep summed once = (++) fold" test_sweep_sum_equals_fold;
  ]
  @ qcheck_tests
