open Test_helpers
module Small_cuts = Mincut_graph.Small_cuts
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Pritchard = Mincut_core.Pritchard
module Bitset = Mincut_util.Bitset
module Cost = Mincut_congest.Cost

let test_bridges_weight_aware () =
  (* a weight-2 "bridge" is a parallel bundle, not a cut edge *)
  let g = Graph.create ~n:4 [ (0, 1, 1); (1, 2, 2); (2, 3, 1) ] in
  let bs = Small_cuts.bridges g in
  check_bool "heavy edge excluded" true (not (List.mem 1 bs));
  check_int "two unit bridges" 2 (List.length bs)

let test_cut_pairs_ring () =
  let g = Generators.ring 5 in
  let pairs = Small_cuts.cut_pairs g in
  (* every pair of ring edges is a 2-cut: C(5,2) = 10 *)
  check_int "all pairs cut" 10 (List.length pairs)

let test_cut_pairs_none_on_torus () =
  check_int "torus has no 2-cuts" 0 (List.length (Small_cuts.cut_pairs (Generators.torus 3 3)))

let test_cut_pairs_exclude_bridge_combos () =
  (* barbell: the bridge makes 1-cuts, not 2-cuts; pairs containing it
     must be filtered *)
  let g = Generators.barbell 4 in
  let bs = Small_cuts.bridges g in
  let pairs = Small_cuts.cut_pairs g in
  check_int "one bridge" 1 (List.length bs);
  List.iter
    (fun (e, f) ->
      check_bool "no bridge in pair" true
        (not (List.mem e bs) && not (List.mem f bs)))
    pairs

let test_le2_classification () =
  check_bool "path -> 1" true (Small_cuts.edge_connectivity_le2 (Generators.path 4) = Some 1);
  check_bool "ring -> 2" true (Small_cuts.edge_connectivity_le2 (Generators.ring 5) = Some 2);
  check_bool "torus -> none" true (Small_cuts.edge_connectivity_le2 (Generators.torus 3 3) = None);
  let disconnected = Graph.create ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  check_bool "disconnected -> 0" true (Small_cuts.edge_connectivity_le2 disconnected = Some 0)

let test_cut_pair_side_value () =
  let g = Generators.ring 6 in
  match Small_cuts.cut_pairs g with
  | [] -> Alcotest.fail "expected pairs"
  | (e, f) :: _ ->
      let side = Small_cuts.side_without g [ e; f ] in
      check_int "side cuts exactly 2" 2 (Graph.cut_of_bitset g side)

let test_pritchard_lambda1 () =
  List.iter
    (fun (name, g) ->
      match (Pritchard.run g).Pritchard.verdict with
      | Pritchard.Cut_found { value = 1; side } ->
          check_int (name ^ " side") 1 (Graph.cut_of_bitset g side)
      | _ -> Alcotest.failf "%s: expected a 1-cut" name)
    [ ("barbell5", Generators.barbell 5); ("path6", Generators.path 6);
      ("spider", Generators.spider ~legs:3 ~leg_length:4) ]

let test_pritchard_lambda2 () =
  List.iter
    (fun (name, g) ->
      match (Pritchard.run g).Pritchard.verdict with
      | Pritchard.Cut_found { value = 2; side } ->
          check_int (name ^ " side") 2 (Graph.cut_of_bitset g side)
      | _ -> Alcotest.failf "%s: expected a 2-cut" name)
    [ ("ring8", Generators.ring 8); ("grid4x4", Generators.grid 4 4);
      ("cliques-path", Generators.path_of_cliques ~clique:4 ~length:3) ]

let test_pritchard_inconclusive () =
  List.iter
    (fun (name, g) ->
      match (Pritchard.run g).Pritchard.verdict with
      | Pritchard.Lambda_at_least_3 -> ()
      | Pritchard.Cut_found { value; _ } ->
          Alcotest.failf "%s: expected inconclusive, got cut %d" name value)
    [ ("torus4x4", Generators.torus 4 4); ("complete5", Generators.complete 5);
      ("hypercube3", Generators.hypercube 3) ]

let test_pritchard_cheaper_than_general () =
  (* the point of the specialization: O(D)-ish, far below sqrt n + D *)
  let g = Generators.path_of_cliques ~clique:8 ~length:16 in
  let p = Pritchard.run g in
  let general = Mincut_core.Exact.run ~params:Mincut_core.Params.fast ~trees:8 g in
  check_bool "small-cut detector much cheaper" true
    (p.Pritchard.cost.Cost.rounds * 10 < general.Mincut_core.Exact.cost.Cost.rounds)

let qcheck_tests =
  [
    qtest ~count:40 "le2 classification matches stoer-wagner"
      (arbitrary_connected ~max_n:10 ())
      (fun g ->
        let lambda = (Stoer_wagner.run g).Mincut_graph.Stoer_wagner.value in
        match Small_cuts.edge_connectivity_le2 g with
        | Some v -> lambda <= 2 && v = lambda
        | None -> lambda >= 3);
    qtest ~count:40 "pritchard verdict consistent with λ"
      (arbitrary_connected ~max_n:10 ())
      (fun g ->
        let lambda = (Stoer_wagner.run g).Mincut_graph.Stoer_wagner.value in
        match (Pritchard.run g).Pritchard.verdict with
        | Pritchard.Cut_found { value; side } ->
            value = lambda && lambda <= 2 && Graph.cut_of_bitset g side = value
        | Pritchard.Lambda_at_least_3 -> lambda >= 3);
  ]

let suite =
  [
    tc "small-cuts: weight-aware bridges" test_bridges_weight_aware;
    tc "small-cuts: ring pairs" test_cut_pairs_ring;
    tc "small-cuts: torus has none" test_cut_pairs_none_on_torus;
    tc "small-cuts: bridge combos excluded" test_cut_pairs_exclude_bridge_combos;
    tc "small-cuts: le2 classification" test_le2_classification;
    tc "small-cuts: pair side value" test_cut_pair_side_value;
    tc "pritchard: finds 1-cuts" test_pritchard_lambda1;
    tc "pritchard: finds 2-cuts" test_pritchard_lambda2;
    tc "pritchard: inconclusive for λ>=3" test_pritchard_inconclusive;
    tc "pritchard: cheaper than the general algorithm" test_pritchard_cheaper_than_general;
  ]
  @ qcheck_tests
