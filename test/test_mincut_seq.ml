open Test_helpers
module Bitset = Mincut_util.Bitset
module Rng = Mincut_util.Rng
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Karger = Mincut_graph.Karger
module Mincut_seq = Mincut_graph.Mincut_seq
module Bridge = Mincut_graph.Bridge
module Nagamochi = Mincut_graph.Nagamochi
module Sampling = Mincut_graph.Sampling

(* families with known λ *)
let known_lambda =
  [
    ("path", Generators.path 8, 1);
    ("ring", Generators.ring 9, 2);
    ("complete6", Generators.complete 6, 5);
    ("grid4x5", Generators.grid 4 5, 2);
    ("torus4x4", Generators.torus 4 4, 4);
    ("hypercube4", Generators.hypercube 4, 4);
    ("wheel8", Generators.wheel 8, 3);
    ("barbell5", Generators.barbell 5, 1);
    ("dumbbell4-3", Generators.dumbbell 4 3, 1);
    ("path-of-cliques", Generators.path_of_cliques ~clique:5 ~length:4, 2);
  ]

let test_stoer_wagner_known () =
  List.iter
    (fun (name, g, lambda) ->
      let r = Stoer_wagner.run g in
      check_int (name ^ " λ") lambda r.Stoer_wagner.value;
      check_int (name ^ " side consistent") lambda (Graph.cut_of_bitset g r.Stoer_wagner.side);
      check_bool (name ^ " proper side") true
        (Mincut_seq.is_valid_side g r.Stoer_wagner.side))
    known_lambda

let test_stoer_wagner_weighted () =
  (* two triangles joined by a weight-2 and a weight-3 edge: λ = 5 *)
  let g =
    Graph.create ~n:6
      [
        (0, 1, 10); (1, 2, 10); (0, 2, 10);
        (3, 4, 10); (4, 5, 10); (3, 5, 10);
        (0, 3, 2); (2, 5, 3);
      ]
  in
  check_int "weighted λ" 5 (Stoer_wagner.run g).Stoer_wagner.value

let test_stoer_wagner_two_nodes () =
  let g = Graph.create ~n:2 [ (0, 1, 7) ] in
  check_int "K2" 7 (Stoer_wagner.run g).Stoer_wagner.value

let test_stoer_wagner_parallel_edges () =
  let g = Graph.create ~n:2 [ (0, 1, 3); (0, 1, 4) ] in
  check_int "parallel sum" 7 (Stoer_wagner.run g).Stoer_wagner.value

let test_stoer_wagner_rejects_single () =
  check_bool "n=1 rejected" true
    (try
       ignore (Stoer_wagner.run (Graph.create ~n:1 []));
       false
     with Invalid_argument _ -> true)

let test_brute_force_matches_sw () =
  List.iter
    (fun (name, g) ->
      if Graph.n g >= 2 && Graph.n g <= 14 then
        check_int (name ^ " brute=sw") (Mincut_seq.brute_force g).Mincut_seq.value
          (Stoer_wagner.run g).Stoer_wagner.value)
    (small_connected_graphs ())

let test_min_cut_disconnected () =
  let g = Graph.create ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  let r = Mincut_seq.min_cut g in
  check_int "disconnected λ=0" 0 r.Mincut_seq.value;
  check_bool "side valid" true (Mincut_seq.is_valid_side g r.Mincut_seq.side)

let test_karger_contraction_known () =
  let rng = Rng.create 99 in
  List.iter
    (fun (name, g, lambda) ->
      let r = Karger.contraction ~rng ~trials:200 g in
      check_bool (name ^ " karger >= λ") true (r.Karger.value >= lambda);
      check_int (name ^ " karger side consistent") r.Karger.value
        (Graph.cut_of_bitset g r.Karger.side))
    known_lambda

let test_karger_stein_exact_often () =
  let rng = Rng.create 7 in
  (* Karger–Stein should nail these small cuts with default trials *)
  List.iter
    (fun (name, g, lambda) ->
      let r = Karger.karger_stein ~rng g in
      check_int (name ^ " ks exact") lambda r.Karger.value)
    [
      ("barbell4", Generators.barbell 4, 1);
      ("ring7", Generators.ring 7, 2);
      ("grid3x3", Generators.grid 3 3, 2);
    ]

let test_karger_single_run_valid () =
  let rng = Rng.create 55 in
  List.iter
    (fun (name, g) ->
      let r = Karger.contract_once ~rng g in
      check_bool (name ^ " valid side") true (Mincut_seq.is_valid_side g r.Karger.side);
      check_int (name ^ " value consistent") r.Karger.value
        (Graph.cut_of_bitset g r.Karger.side))
    (small_connected_graphs ())

let test_bridges_path () =
  let g = Generators.path 5 in
  check_int "all path edges are bridges" 4 (List.length (Bridge.bridges g))

let test_bridges_ring () =
  check_int "ring has no bridges" 0 (List.length (Bridge.bridges (Generators.ring 6)))

let test_bridges_barbell () =
  let g = Generators.barbell 4 in
  let bs = Bridge.bridges g in
  check_int "single bridge" 1 (List.length bs);
  let u, v = Graph.endpoints g (List.hd bs) in
  check_bool "it is the middle edge" true ((u, v) = (3, 4))

let test_bridges_parallel_edges_not_bridges () =
  let g = Graph.create ~n:3 [ (0, 1, 1); (0, 1, 1); (1, 2, 1) ] in
  let bs = Bridge.bridges g in
  check_int "only the single edge" 1 (List.length bs);
  check_bool "it is edge 2" true (List.hd bs = 2)

let test_bridges_disconnected () =
  let g = Graph.create ~n:5 [ (0, 1, 1); (2, 3, 1); (3, 4, 1); (2, 4, 1) ] in
  check_int "bridge in first component only" 1 (List.length (Bridge.bridges g))

let test_two_edge_connected () =
  (* two-edge-connected = connected and bridgeless *)
  let two_edge_connected g = Bfs.is_connected g && Bridge.bridges g = [] in
  check_bool "ring" true (two_edge_connected (Generators.ring 5));
  check_bool "path" false (two_edge_connected (Generators.path 5))

let test_bridges_match_cut_definition () =
  (* an edge is a bridge iff removing it disconnects the graph *)
  List.iter
    (fun (name, g) ->
      let bs = Bridge.bridges g in
      Graph.iter_edges
        (fun e ->
          let without = Graph.sub_by_edges g ~keep:(fun e' -> e'.Graph.id <> e.Graph.id) in
          let disconnects = not (Bfs.is_connected without) in
          check_bool
            (Printf.sprintf "%s edge %d bridge-iff-disconnects" name e.Graph.id)
            disconnects (List.mem e.Graph.id bs))
        g)
    (small_connected_graphs ())

let test_ni_scan_shape () =
  List.iter
    (fun (name, g) ->
      let s = Nagamochi.scan g in
      check_int (name ^ " order covers nodes") (Graph.n g) (Array.length s.Nagamochi.order);
      Array.iter
        (fun low -> check_bool (name ^ " low >= 1") true (low >= 1))
        s.Nagamochi.edge_low)
    (small_connected_graphs ())

let test_ni_certificate_preserves_small_cuts () =
  let rng = Rng.create 3 in
  for _ = 1 to 10 do
    let g = Generators.gnp_connected ~rng 12 0.6 in
    let lambda = Stoer_wagner.min_cut_value g in
    let cert = Nagamochi.certificate g ~k:lambda in
    check_int "certificate keeps λ" lambda (Stoer_wagner.min_cut_value cert)
  done

let test_ni_certificate_sparse () =
  let g = Generators.complete 12 in
  let cert = Nagamochi.certificate g ~k:3 in
  check_bool "certificate weight <= k(n-1)" true (Graph.total_weight cert <= 3 * 11)

let test_ni_contract_above_safe () =
  let rng = Rng.create 4 in
  for _ = 1 to 10 do
    let g = Generators.gnp_connected ~rng 12 0.6 in
    let lambda = Stoer_wagner.min_cut_value g in
    let contracted, _map = Nagamochi.contract_above g ~k:lambda in
    if Graph.n contracted >= 2 then
      check_int "contraction preserves λ when k >= λ" lambda
        (Stoer_wagner.min_cut_value contracted)
  done

let test_sampling_p_one_identity () =
  let rng = Rng.create 8 in
  List.iter
    (fun (name, g) ->
      let sk = Sampling.sample ~rng g ~p:1.0 in
      check_bool (name ^ " identity at p=1") true (Graph.equal_structure g sk.Sampling.graph))
    (small_connected_graphs ())

let test_sampling_p_zero_empty () =
  let rng = Rng.create 9 in
  let g = Generators.complete 6 in
  let sk = Sampling.sample ~rng g ~p:0.0 in
  check_int "empty skeleton" 0 (Graph.m sk.Sampling.graph)

let test_sampling_weight_concentration () =
  let rng = Rng.create 10 in
  let g = Generators.complete ~weights:{ Generators.wmin = 4; wmax = 4 } ~rng 20 in
  let sk = Sampling.sample ~rng g ~p:0.5 in
  let expected = 0.5 *. float_of_int (Graph.total_weight g) in
  let got = float_of_int (Graph.total_weight sk.Sampling.graph) in
  check_bool "total weight near p*W" true (abs_float (got -. expected) < 0.2 *. expected)

let test_recommended_p_clamped () =
  check_bool "p <= 1" true (Sampling.recommended_p ~n:4 ~epsilon:0.1 ~lambda_estimate:1 <= 1.0);
  check_bool "p positive" true (Sampling.recommended_p ~n:1000 ~epsilon:0.5 ~lambda_estimate:100 > 0.0)

let qcheck_tests =
  [
    qtest ~count:60 "stoer-wagner = brute force" (arbitrary_connected ~max_n:9 ())
      (fun g ->
        (Stoer_wagner.run g).Stoer_wagner.value = (Mincut_seq.brute_force g).Mincut_seq.value);
    qtest ~count:60 "λ <= min weighted degree" (arbitrary_connected ())
      (fun g ->
        let lambda = (Stoer_wagner.run g).Stoer_wagner.value in
        let mindeg = ref max_int in
        for v = 0 to Graph.n g - 1 do
          mindeg := min !mindeg (Graph.weighted_degree g v)
        done;
        lambda <= !mindeg);
    qtest ~count:40 "karger-stein >= λ and side consistent" (arbitrary_connected ~max_n:10 ())
      (fun g ->
        let rng = Rng.create 1234 in
        let r = Karger.karger_stein ~rng g in
        let sw = (Stoer_wagner.run g).Stoer_wagner.value in
        r.Karger.value >= sw && Graph.cut_of_bitset g r.Karger.side = r.Karger.value);
    qtest ~count:40 "bridges <=> λ-after-removal drops to 0" (arbitrary_connected ~max_n:10 ())
      (fun g ->
        let bs = Bridge.bridges g in
        List.for_all
          (fun id ->
            not (Bfs.is_connected (Graph.sub_by_edges g ~keep:(fun e -> e.Graph.id <> id))))
          bs);
  ]

let suite =
  [
    tc "stoer-wagner: known families" test_stoer_wagner_known;
    tc "stoer-wagner: weighted" test_stoer_wagner_weighted;
    tc "stoer-wagner: two nodes" test_stoer_wagner_two_nodes;
    tc "stoer-wagner: parallel edges" test_stoer_wagner_parallel_edges;
    tc "stoer-wagner: rejects n=1" test_stoer_wagner_rejects_single;
    tc "brute force matches stoer-wagner" test_brute_force_matches_sw;
    tc "min_cut: disconnected graphs" test_min_cut_disconnected;
    tc "karger: contraction lower-bounded by λ" test_karger_contraction_known;
    tc "karger-stein: exact on easy cuts" test_karger_stein_exact_often;
    tc "karger: single run validity" test_karger_single_run_valid;
    tc "bridges: path" test_bridges_path;
    tc "bridges: ring" test_bridges_ring;
    tc "bridges: barbell" test_bridges_barbell;
    tc "bridges: parallel edges" test_bridges_parallel_edges_not_bridges;
    tc "bridges: disconnected input" test_bridges_disconnected;
    tc "bridges: two-edge-connectivity" test_two_edge_connected;
    tc_slow "bridges: match removal definition" test_bridges_match_cut_definition;
    tc "ni: scan shape" test_ni_scan_shape;
    tc "ni: certificate preserves small cuts" test_ni_certificate_preserves_small_cuts;
    tc "ni: certificate is sparse" test_ni_certificate_sparse;
    tc "ni: contraction above λ is safe" test_ni_contract_above_safe;
    tc "sampling: p=1 identity" test_sampling_p_one_identity;
    tc "sampling: p=0 empty" test_sampling_p_zero_empty;
    tc "sampling: concentration" test_sampling_weight_concentration;
    tc "sampling: recommended p clamped" test_recommended_p_clamped;
  ]
  @ qcheck_tests
