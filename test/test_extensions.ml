open Test_helpers
module All_min_cuts = Mincut_graph.All_min_cuts
module Metrics = Mincut_graph.Metrics
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Tree_packing = Mincut_treepack.Tree_packing
module Certificate = Mincut_core.Certificate
module Api = Mincut_core.Api
module Params = Mincut_core.Params
module Bitset = Mincut_util.Bitset
module Rng = Mincut_util.Rng

(* ---- all min cuts -------------------------------------------------- *)

let test_all_min_cuts_ring () =
  (* ring of n: min cut = 2, realized by every pair of edges: C(n,2) cuts *)
  let r = All_min_cuts.exhaustive (Generators.ring 6) in
  check_int "value" 2 r.All_min_cuts.value;
  check_int "count C(6,2)" 15 (List.length r.All_min_cuts.sides)

let test_all_min_cuts_path () =
  let r = All_min_cuts.exhaustive (Generators.path 5) in
  check_int "value" 1 r.All_min_cuts.value;
  check_int "one cut per edge" 4 (List.length r.All_min_cuts.sides)

let test_all_min_cuts_barbell () =
  let r = All_min_cuts.exhaustive (Generators.barbell 4) in
  check_int "unique min cut" 1 (List.length r.All_min_cuts.sides)

let test_all_min_cuts_sides_valid () =
  List.iter
    (fun (name, g) ->
      if Graph.n g <= 14 then begin
        let r = All_min_cuts.exhaustive g in
        List.iter
          (fun side ->
            check_int (name ^ " side achieves λ") r.All_min_cuts.value
              (Graph.cut_of_bitset g side);
            check_bool (name ^ " canonical (0 outside)") false (Bitset.mem side 0))
          r.All_min_cuts.sides
      end)
    (small_connected_graphs ())

let test_randomized_subset_of_exhaustive () =
  let rng = Rng.create 15 in
  for _ = 1 to 5 do
    let g = Generators.gnp_connected ~rng 10 0.5 in
    let ex = All_min_cuts.exhaustive g in
    let rand = All_min_cuts.randomized ~rng g in
    check_int "same value" ex.All_min_cuts.value rand.All_min_cuts.value;
    let keys l = List.sort compare (List.map Bitset.to_list l) in
    let ex_keys = keys ex.All_min_cuts.sides in
    List.iter
      (fun k -> check_bool "randomized side is a true min cut" true (List.mem k ex_keys))
      (keys rand.All_min_cuts.sides)
  done

let test_randomized_finds_all_on_ring () =
  let rng = Rng.create 16 in
  let r = All_min_cuts.randomized ~rng ~trials:2000 (Generators.ring 6) in
  check_int "all 15 ring cuts found" 15 (List.length r.All_min_cuts.sides)

(* ---- metrics -------------------------------------------------------- *)

let test_metrics_complete () =
  let m = Metrics.compute (Generators.complete 6) in
  check_int "min deg" 5 m.Metrics.min_degree;
  check_int "max deg" 5 m.Metrics.max_degree;
  check_int "diameter" 1 m.Metrics.diameter;
  check_bool "fully clustered" true (m.Metrics.triangle_density = 1.0)

let test_metrics_tree_no_triangles () =
  let rng = Rng.create 9 in
  let m = Metrics.compute (Generators.random_tree ~rng 20) in
  check_bool "no triangles in trees" true (m.Metrics.triangle_density = 0.0)

let test_metrics_row_arity () =
  let m = Metrics.compute (Generators.grid 3 3) in
  check_int "row matches columns" (List.length Metrics.columns)
    (List.length (Metrics.pp_row m))

(* ---- disjoint packing ------------------------------------------------ *)

let test_disjoint_trees_are_disjoint () =
  List.iter
    (fun (name, g) ->
      let trees = Tree_packing.disjoint_greedy g in
      let use = Array.make (Graph.m g) 0 in
      List.iter (List.iter (fun id -> use.(id) <- use.(id) + 1)) trees;
      Array.iteri
        (fun id u ->
          check_bool (name ^ " within capacity") true (u <= Graph.weight g id))
        use;
      List.iter
        (fun ids ->
          check_bool (name ^ " spans") true (Mincut_graph.Mst_seq.is_spanning_tree g ids))
        trees)
    (small_connected_graphs ())

let test_disjoint_count_bounds () =
  List.iter
    (fun (name, g, lambda) ->
      let c = Tree_packing.disjoint_count g in
      check_bool
        (Printf.sprintf "%s: %d trees <= λ=%d" name c lambda)
        true (c <= lambda);
      check_bool (name ^ " at least one") true (c >= 1))
    [
      ("ring8", Generators.ring 8, 2);
      ("complete6", Generators.complete 6, 5);
      ("torus4x4", Generators.torus 4 4, 4);
      ("hypercube4", Generators.hypercube 4, 4);
      ("path5", Generators.path 5, 1);
    ]

let test_disjoint_weighted_multiplicity () =
  (* doubled ring: weight 2 everywhere → two edge-disjoint spanning trees *)
  let g = Generators.ring ~weights:{ Generators.wmin = 2; wmax = 2 }
            ~rng:(Rng.create 1) 6 in
  check_bool "at least 2 trees" true (Tree_packing.disjoint_count g >= 2)

(* ---- certification ---------------------------------------------------- *)

let test_certificate_accepts_truth () =
  List.iter
    (fun (name, g) ->
      let s = Api.min_cut ~params:Params.fast g in
      let report = Certificate.certify_summary g s in
      check_bool (name ^ " accepted") true report.Certificate.accepted;
      check_int (name ^ " recomputed") s.Api.value report.Certificate.recomputed;
      check_bool (name ^ " certification is cheap") true
        (report.Certificate.rounds < 6 * (Graph.n g + 5)))
    (small_connected_graphs ())

let test_certificate_rejects_wrong_value () =
  let g = Generators.torus 4 4 in
  let s = Api.min_cut ~params:Params.fast g in
  let report = Certificate.certify g ~value:(s.Api.value + 1) ~side:s.Api.side in
  check_bool "rejected" false report.Certificate.accepted

let test_certificate_rejects_trivial_side () =
  let g = Generators.ring 6 in
  let full = Bitset.create 6 in
  Bitset.complement_inplace full;
  let report = Certificate.certify g ~value:0 ~side:full in
  check_bool "full side rejected" false report.Certificate.accepted;
  let empty = Bitset.create 6 in
  let report = Certificate.certify g ~value:0 ~side:empty in
  check_bool "empty side rejected" false report.Certificate.accepted

(* Parent-recorded reports on the replay graphs, for the true claim and
   for a claim one too high: the crossing exchange and the two
   convergecasts run on the forest programs with every round unchanged. *)
let golden_certificates =
  [
    ("torus4", "true/4/4/18 false/5/4/18");
    ("grid5", "true/2/2/30 false/3/2/30");
    ("gnp24", "true/3/3/12 false/4/3/12");
  ]

let test_certificate_goldens () =
  let report_string (r : Certificate.report) =
    Printf.sprintf "%b/%d/%d/%d" r.Certificate.accepted r.Certificate.claimed
      r.Certificate.recomputed r.Certificate.rounds
  in
  let got =
    List.map
      (fun (name, g) ->
        let s = Api.min_cut ~params:Params.fast g in
        let truth = Certificate.certify_summary g s in
        let lie = Certificate.certify g ~value:(s.Api.value + 1) ~side:s.Api.side in
        (name, report_string truth ^ " " ^ report_string lie))
      [
        ("torus4", Generators.torus 4 4);
        ("grid5", Generators.grid 5 5);
        ("gnp24", Generators.gnp_connected ~rng:(Rng.create 12) 24 0.3);
      ]
  in
  Alcotest.(check (list (pair string string))) "certificate reports" golden_certificates got

let test_certificate_outputs () =
  let g = Generators.barbell 4 in
  let s = Api.min_cut ~params:Params.fast g in
  let bits = Certificate.outputs g s.Api.side in
  let members = Bitset.cardinal s.Api.side in
  check_int "bit count matches side" members
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 bits)

let qcheck_tests =
  [
    qtest ~count:30 "exhaustive enumeration: count >= 1, all achieve λ"
      (arbitrary_connected ~max_n:10 ())
      (fun g ->
        let r = All_min_cuts.exhaustive g in
        r.All_min_cuts.sides <> []
        && List.for_all
             (fun s -> Graph.cut_of_bitset g s = r.All_min_cuts.value)
             r.All_min_cuts.sides
        && r.All_min_cuts.value = (Stoer_wagner.run g).Mincut_graph.Stoer_wagner.value);
    qtest ~count:30 "disjoint packing bounded by λ" (arbitrary_connected ~max_n:12 ())
      (fun g ->
        Tree_packing.disjoint_count g
        <= (Stoer_wagner.run g).Mincut_graph.Stoer_wagner.value);
    qtest ~count:30 "certificate sound and complete on claims"
      (arbitrary_connected ~max_n:10 ())
      (fun g ->
        let s = Api.min_cut ~params:Params.fast g in
        let good = Certificate.certify_summary g s in
        let bad = Certificate.certify g ~value:(s.Api.value + 1) ~side:s.Api.side in
        good.Certificate.accepted && not bad.Certificate.accepted);
  ]

let suite =
  [
    tc "all-cuts: ring enumeration" test_all_min_cuts_ring;
    tc "all-cuts: path enumeration" test_all_min_cuts_path;
    tc "all-cuts: unique barbell cut" test_all_min_cuts_barbell;
    tc "all-cuts: sides valid and canonical" test_all_min_cuts_sides_valid;
    tc "all-cuts: randomized subset of exhaustive" test_randomized_subset_of_exhaustive;
    tc_slow "all-cuts: randomized completeness on ring" test_randomized_finds_all_on_ring;
    tc "metrics: complete graph" test_metrics_complete;
    tc "metrics: trees have no triangles" test_metrics_tree_no_triangles;
    tc "metrics: row arity" test_metrics_row_arity;
    tc "disjoint packing: trees are edge-disjoint" test_disjoint_trees_are_disjoint;
    tc "disjoint packing: bounded by λ" test_disjoint_count_bounds;
    tc "disjoint packing: weighted multiplicity" test_disjoint_weighted_multiplicity;
    tc "certificate: accepts the truth" test_certificate_accepts_truth;
    tc "certificate: rejects wrong values" test_certificate_rejects_wrong_value;
    tc "certificate: rejects trivial sides" test_certificate_rejects_trivial_side;
    tc "certificate: per-node outputs" test_certificate_outputs;
    tc "certificate: parent-recorded report goldens" test_certificate_goldens;
  ]
  @ qcheck_tests
