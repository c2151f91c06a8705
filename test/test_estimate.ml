(* The sampling-ladder λ-estimator (Sample_estimate): the bracket must
   contain the exact minimum cut, the same seed must reproduce the same
   ladder bit-for-bit, and feeding the bracket back into the exact
   pipeline as a packing hint must prune the budget without ever
   changing the answer. *)

open Test_helpers
module E = Mincut_core.Sample_estimate
module Api = Mincut_core.Api
module Exact = Mincut_core.Exact
module Params = Mincut_core.Params
module Cost = Mincut_congest.Cost
module Graph = Mincut_graph.Graph

let bracket_holds ~seed g =
  let est = Api.estimate ~seed g in
  let exact = (Api.min_cut ~params:Params.fast g).Api.value in
  est.E.lower <= exact && exact <= est.E.upper

let test_bracket_torus () =
  List.iter
    (fun k ->
      List.iter
        (fun seed ->
          check_bool
            (Printf.sprintf "torus %dx%d seed %d inside bracket" k k seed)
            true
            (bracket_holds ~seed (Generators.torus k k)))
        [ 0; 1; 2 ])
    [ 4; 6; 8 ]

let test_bracket_gnp () =
  List.iter
    (fun gseed ->
      let g = Generators.gnp_connected ~rng:(Rng.create gseed) 32 0.2 in
      List.iter
        (fun seed ->
          check_bool
            (Printf.sprintf "gnp gseed %d seed %d inside bracket" gseed seed)
            true
            (bracket_holds ~seed g))
        [ 0; 5 ])
    [ 3; 12; 77 ]

let test_deterministic () =
  let g = Generators.gnp_connected ~rng:(Rng.create 12) 24 0.3 in
  let a = Api.estimate ~seed:9 g and b = Api.estimate ~seed:9 g in
  check_bool "same seed, same ladder" true
    (a.E.estimate = b.E.estimate && a.E.lower = b.E.lower
    && a.E.upper = b.E.upper && a.E.level = b.E.level
    && a.E.levels_tried = b.E.levels_tried
    && a.E.saturated = b.E.saturated && Cost.equal a.E.cost b.E.cost)

let test_disconnected () =
  let g = Graph.of_array ~n:4 [| (0, 1, 1); (2, 3, 1) |] in
  let est = Api.estimate g in
  check_int "disconnected estimate is 0" 0 est.E.estimate;
  check_int "disconnected upper is 0" 0 est.E.upper;
  check_bool "no budget hint from a 0-cut" true (E.tree_budget_hint est = None)

let test_cost_grouped () =
  let est = Api.estimate (Generators.torus 6 6) in
  check_bool "positive simulated rounds" true (est.E.cost.Cost.rounds > 0);
  match est.E.cost.Cost.spans with
  | [ sp ] ->
      Alcotest.(check string)
        "one ladder span" "sampling λ-estimate ladder" sp.Cost.label;
      check_int "one child per level tried" est.E.levels_tried
        (List.length sp.Cost.children)
  | spans ->
      Alcotest.fail
        (Printf.sprintf "expected one top-level span, got %d" (List.length spans))

let test_budget_hint_prunes () =
  (* heavy weighted degrees around a λ=1 bottleneck: the degree bound
     (100) is loose, the sampling upper is tight enough to shrink the
     packing budget — and the answer must not move *)
  let g = Graph.of_array ~n:4 [| (0, 1, 100); (1, 2, 1); (2, 3, 100) |] in
  let est = Api.estimate g in
  check_bool "sampling bound beats the degree bound" true
    (est.E.upper < Exact.min_weighted_degree g);
  let full = Exact.run ~params:Params.fast g in
  let hinted = Exact.run ~params:Params.fast ~lambda_upper:est.E.upper g in
  check_int "hinted value unchanged" full.Exact.value hinted.Exact.value;
  check_int "exact value is the bottleneck" 1 hinted.Exact.value;
  check_bool "packing budget pruned" true
    (hinted.Exact.trees_used < full.Exact.trees_used)

(* one edge of weight 10^17: the ladder used to draw about w·p coins
   per edge per trial, and to skip forever once p fell below 2^-53 *)
let test_heavy_edge_answers () =
  let w = 100_000_000_000_000_000 in
  let est = Api.estimate (Graph.of_array ~n:2 [| (0, 1, w) |]) in
  check_bool "heavy bracket holds" true (est.E.lower <= w && w <= est.E.upper)

let prop_bracket =
  qtest ~count:40 "estimator brackets the exact min cut"
    QCheck2.Gen.(pair (arbitrary_connected ~max_n:16 ()) (int_range 0 1_000))
    (fun (g, seed) -> bracket_holds ~seed g)

let prop_hint_preserves_answer =
  qtest ~count:25 "lambda_upper hint never changes the answer"
    QCheck2.Gen.(pair (arbitrary_connected ~max_n:12 ()) (int_range 0 1_000))
    (fun (g, seed) ->
      let est = Api.estimate ~seed g in
      let s = Api.min_cut ~params:Params.fast g in
      let h =
        match E.tree_budget_hint est with
        | Some upper -> Api.min_cut ~params:Params.fast ~lambda_upper:upper g
        | None -> Api.min_cut ~params:Params.fast g
      in
      s.Api.value = h.Api.value && Api.verify g h)

let suite =
  [
    tc "estimate: torus brackets hold" test_bracket_torus;
    tc "estimate: gnp brackets hold" test_bracket_gnp;
    tc "estimate: deterministic per seed" test_deterministic;
    tc "estimate: disconnected graph" test_disconnected;
    tc "estimate: cost grouped under one ladder span" test_cost_grouped;
    tc "estimate: budget hint prunes without changing answers" test_budget_hint_prunes;
    prop_bracket;
    prop_hint_preserves_answer;
    tc "estimate: a heavy edge answers" test_heavy_edge_answers;
  ]
