open Test_helpers
module Fragments = Mincut_mst.Fragments
module Boruvka_dist = Mincut_mst.Boruvka_dist
module Mst_seq = Mincut_graph.Mst_seq
module Cost = Mincut_congest.Cost
module Params = Mincut_core.Params

let test_boruvka_dist_matches_sequential () =
  List.iter
    (fun (name, g) ->
      let r = Boruvka_dist.run g in
      let seq = Mst_seq.boruvka g in
      check_bool (name ^ " same edge set") true
        (List.sort compare r.Boruvka_dist.edge_ids = List.sort compare seq))
    (small_connected_graphs ())

let test_boruvka_dist_phase_bound () =
  List.iter
    (fun (name, g) ->
      let r = Boruvka_dist.run g in
      let n = Graph.n g in
      let log2n =
        let rec go k = if 1 lsl k >= n then k else go (k + 1) in
        go 0
      in
      check_bool
        (Printf.sprintf "%s phases %d <= log2 n + 1 = %d" name r.Boruvka_dist.phases (log2n + 1))
        true
        (r.Boruvka_dist.phases <= log2n + 1))
    (small_connected_graphs ())

let test_boruvka_dist_spanning_tree () =
  List.iter
    (fun (name, g) ->
      let r = Boruvka_dist.run g in
      let tree = Tree.of_edge_ids g ~root:0 r.Boruvka_dist.edge_ids in
      check_int (name ^ " spans") (Graph.n g)
        (List.length (Tree.subtree_members tree 0)))
    (small_connected_graphs ())

let test_boruvka_dist_single_node () =
  let g = Graph.create ~n:1 [] in
  let r = Boruvka_dist.run g in
  check_int "no edges" 0 (List.length r.Boruvka_dist.edge_ids);
  check_int "no phases" 0 r.Boruvka_dist.phases

let test_boruvka_dist_two_nodes () =
  let g = Graph.create ~n:2 [ (0, 1, 5) ] in
  let r = Boruvka_dist.run g in
  check_bool "single edge chosen" true (r.Boruvka_dist.edge_ids = [ 0 ]);
  check_int "one phase" 1 r.Boruvka_dist.phases

let test_boruvka_dist_disconnected_forest () =
  let g = Graph.create ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  let r = Boruvka_dist.run g in
  check_int "forest of 2 edges" 2 (List.length r.Boruvka_dist.edge_ids)

let test_boruvka_dist_parallel_edges () =
  let g = Graph.create ~n:2 [ (0, 1, 5); (0, 1, 3) ] in
  let r = Boruvka_dist.run g in
  check_bool "picks the lighter parallel edge" true (r.Boruvka_dist.edge_ids = [ 1 ])

let test_boruvka_tight_word_budget () =
  (* the protocol's largest message is a 2-word candidate: it must run
     unchanged under a words_per_message budget of exactly 2 *)
  let cfg = Mincut_congest.Config.with_budget 2 in
  let g = Generators.gnp_connected ~rng:(Mincut_util.Rng.create 8) 20 0.3 in
  let tight = Boruvka_dist.run ~cfg g in
  let loose = Boruvka_dist.run g in
  check_bool "same MST under tight budget" true
    (tight.Boruvka_dist.edge_ids = loose.Boruvka_dist.edge_ids)

let test_fragments_deep_families () =
  List.iter
    (fun (name, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      List.iter
        (fun target ->
          let f = Fragments.partition tree ~target in
          match Fragments.check_invariants f with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s target %d: %s" name target e)
        [ 1; 2; 5; 16; 1000 ])
    [
      ("cliques-path", Generators.path_of_cliques ~clique:6 ~length:12);
      ("spider", Generators.spider ~legs:5 ~leg_length:15);
      ("path-80", Generators.path 80);
    ]

let test_boruvka_cost_positive () =
  let g = Generators.ring 8 in
  let r = Boruvka_dist.run g in
  check_bool "rounds counted" true (r.Boruvka_dist.cost.Cost.rounds > 0);
  check_bool "breakdown populated" true
    (List.length (Cost.breakdown r.Boruvka_dist.cost) >= 4)

let fragments_of g target =
  let tree = Tree.bfs_tree g ~root:0 in
  Fragments.partition tree ~target

let test_fragments_invariants_families () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let f = fragments_of g (Params.sqrt_target ~n) in
      match Fragments.check_invariants f with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    (small_connected_graphs ())

let test_fragments_path_counts () =
  (* path of 16: target 4 => at most 16/4 + 1 = 5 fragments, height <= 4 *)
  let g = Generators.path 16 in
  let f = fragments_of g 4 in
  check_bool "count <= n/target + 1" true (Fragments.count f <= 5);
  check_bool "height <= target" true (Fragments.max_height f <= 4)

let test_fragments_star () =
  (* star: everything is one shallow fragment *)
  let g = Graph.create ~n:6 (List.init 5 (fun i -> (0, i + 1, 1))) in
  let f = fragments_of g 3 in
  check_int "single fragment" 1 (Fragments.count f);
  check_int "height 1" 1 (Fragments.max_height f)

let test_fragments_target_one () =
  let g = Generators.path 5 in
  let f = fragments_of g 1 in
  check_bool "every fragment height <= 1" true (Fragments.max_height f <= 1);
  match Fragments.check_invariants f with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_fragment_tree_structure () =
  let g = Generators.path 16 in
  let f = fragments_of g 4 in
  let k = Fragments.count f in
  (* the edges of T_F: tree edges from a fragment root to its parent *)
  let inter =
    Array.to_list f.Fragments.roots
    |> List.filter (fun r -> f.Fragments.tree.Tree.parent.(r) <> -1)
  in
  check_int "inter-fragment edges = k-1" (k - 1) (List.length inter);
  (* exactly one fragment has no parent *)
  let top = Array.to_list f.Fragments.frag_parent |> List.filter (fun p -> p = -1) in
  check_int "single top fragment" 1 (List.length top);
  (* root fragment contains the tree root *)
  check_int "root node in top fragment" f.Fragments.frag_of.(0)
    (let rec find i = if f.Fragments.frag_parent.(i) = -1 then i else find (i + 1) in
     find 0)

let test_fragments_ids_are_min_members () =
  let rng = Mincut_util.Rng.create 61 in
  for _ = 1 to 10 do
    let g = Generators.random_tree ~rng 50 in
    let f = fragments_of g 7 in
    Array.iteri
      (fun i ms -> check_int "id is min member" (List.fold_left min max_int ms) f.Fragments.ids.(i))
      f.Fragments.members
  done

let test_fragment_depths_consistent () =
  let rng = Mincut_util.Rng.create 62 in
  let g = Generators.random_tree ~rng 60 in
  let f = fragments_of g 8 in
  (* depth_in_frag of a fragment root is 0; child = parent + 1 in frag *)
  Array.iteri
    (fun i r -> check_int (Printf.sprintf "root depth frag %d" i) 0 f.Fragments.depth_in_frag.(r))
    f.Fragments.roots;
  Array.iteri
    (fun v p ->
      if p <> -1 && f.Fragments.frag_of.(v) = f.Fragments.frag_of.(p) then
        check_int "depth increments" (f.Fragments.depth_in_frag.(p) + 1)
          f.Fragments.depth_in_frag.(v))
    f.Fragments.tree.Tree.parent

let qcheck_tests =
  [
    qtest ~count:50 "distributed = sequential boruvka" (arbitrary_connected ())
      (fun g ->
        let r = Boruvka_dist.run g in
        List.sort compare r.Boruvka_dist.edge_ids = List.sort compare (Mst_seq.boruvka g));
    qtest ~count:50 "fragment invariants on random graphs" (arbitrary_connected ())
      (fun g ->
        let tree = Tree.bfs_tree g ~root:0 in
        let target = Params.sqrt_target ~n:(Graph.n g) in
        match Fragments.check_invariants (Fragments.partition tree ~target) with
        | Ok _ -> true
        | Error _ -> false);
    qtest ~count:30 "fragment count scales with target" (arbitrary_connected ())
      (fun g ->
        let tree = Tree.bfs_tree g ~root:0 in
        let f1 = Fragments.partition tree ~target:2 in
        let f2 = Fragments.partition tree ~target:(Graph.n g) in
        Fragments.count f2 <= Fragments.count f1);
  ]

let suite =
  [
    tc "boruvka-dist: matches sequential" test_boruvka_dist_matches_sequential;
    tc "boruvka-dist: phase bound" test_boruvka_dist_phase_bound;
    tc "boruvka-dist: spanning tree" test_boruvka_dist_spanning_tree;
    tc "boruvka-dist: single node" test_boruvka_dist_single_node;
    tc "boruvka-dist: two nodes" test_boruvka_dist_two_nodes;
    tc "boruvka-dist: disconnected forest" test_boruvka_dist_disconnected_forest;
    tc "boruvka-dist: parallel edges" test_boruvka_dist_parallel_edges;
    tc "boruvka-dist: cost accounting" test_boruvka_cost_positive;
    tc "boruvka-dist: tight word budget" test_boruvka_tight_word_budget;
    tc "fragments: deep families, target sweep" test_fragments_deep_families;
    tc "fragments: invariants on families" test_fragments_invariants_families;
    tc "fragments: path counts" test_fragments_path_counts;
    tc "fragments: star" test_fragments_star;
    tc "fragments: target 1" test_fragments_target_one;
    tc "fragments: fragment tree structure" test_fragment_tree_structure;
    tc "fragments: ids are min members" test_fragments_ids_are_min_members;
    tc "fragments: depths consistent" test_fragment_depths_consistent;
  ]
  @ qcheck_tests
