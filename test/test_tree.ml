open Test_helpers
module Mst_seq = Mincut_graph.Mst_seq

(* a fixed tree:        0
                       / \
                      1   2
                     / \   \
                    3   4   5
                        |
                        6            *)
let fixed_tree () =
  let parent = [| -1; 0; 0; 1; 1; 2; 4 |] in
  let parent_edge = [| -1; 0; 1; 2; 3; 4; 5 |] in
  Tree.of_parents ~graph_n:7 ~root:0 ~parent ~parent_edge

let test_of_parents_basic () =
  let t = fixed_tree () in
  check_int "root" 0 t.Tree.root;
  check_int "depth 6" 3 t.Tree.depth.(6);
  check_int "height" 3 (Tree.height t);
  check_int "size root" 7 t.Tree.size.(0);
  check_int "size 1" 4 t.Tree.size.(1);
  check_int "size 4" 2 t.Tree.size.(4)

let test_of_parents_rejects_cycle () =
  let parent = [| -1; 2; 1 |] in
  let pe = [| -1; 0; 1 |] in
  check_bool "cycle rejected" true
    (try
       ignore (Tree.of_parents ~graph_n:3 ~root:0 ~parent ~parent_edge:pe);
       false
     with Invalid_argument _ -> true)

let test_of_parents_rejects_bad_root () =
  let parent = [| 1; -1 |] in
  check_bool "root must have parent -1" true
    (try
       ignore (Tree.of_parents ~graph_n:2 ~root:0 ~parent ~parent_edge:[| -1; -1 |]);
       false
     with Invalid_argument _ -> true)

let test_preorder_property () =
  let t = fixed_tree () in
  let pos = Array.make 7 0 in
  Array.iteri (fun i v -> pos.(v) <- i) t.Tree.preorder;
  Array.iteri
    (fun v p -> if p >= 0 then check_bool "parent before child" true (pos.(p) < pos.(v)))
    t.Tree.parent

let test_is_ancestor () =
  let t = fixed_tree () in
  check_bool "root ancestor of all" true (Tree.is_ancestor t 0 6);
  check_bool "reflexive" true (Tree.is_ancestor t 4 4);
  check_bool "1 anc 6" true (Tree.is_ancestor t 1 6);
  check_bool "2 not anc 6" false (Tree.is_ancestor t 2 6);
  check_bool "child not anc of parent" false (Tree.is_ancestor t 6 4)

let test_ancestors_list () =
  let t = fixed_tree () in
  let ancestors v = List.filter (fun a -> Tree.is_ancestor t a v) (List.init 7 Fun.id) in
  check_bool "ancestors of 6" true (ancestors 6 = [ 0; 1; 4; 6 ]);
  check_bool "ancestors of root" true (ancestors 0 = [ 0 ])

let test_accumulate_up () =
  let t = fixed_tree () in
  let ones = Array.make 7 1 in
  let sums = Tree.accumulate_up t ones in
  check_bool "subtree sums equal sizes" true (sums = t.Tree.size);
  let x = [| 1; 10; 100; 1000; 10000; 100000; 1000000 |] in
  let s = Tree.accumulate_up t x in
  check_int "leaf keeps own" 1000 s.(3);
  check_int "node 4 = 4 + 6" 1010000 s.(4);
  check_int "node 1" 1011010 s.(1);
  check_int "root totals" 1111111 s.(0)

let test_subtree_members () =
  let t = fixed_tree () in
  check_bool "members of 1" true (List.sort compare (Tree.subtree_members t 1) = [ 1; 3; 4; 6 ]);
  check_bool "members of leaf" true (Tree.subtree_members t 5 = [ 5 ])

let test_children_mirror_parents () =
  let t = fixed_tree () in
  check_int "n_nodes" 7 (Tree.n_nodes t);
  check_int "n-1 child links" 6
    (Array.fold_left (fun acc cs -> acc + Array.length cs) 0 t.Tree.children);
  Array.iteri
    (fun v cs -> Array.iter (fun c -> check_int "child's parent" v t.Tree.parent.(c)) cs)
    t.Tree.children

let test_of_edge_ids () =
  let g = Generators.ring 6 in
  (* drop edge 5 (between 5 and 0): path spanning tree *)
  let ids = [ 0; 1; 2; 3; 4 ] in
  let t = Tree.of_edge_ids g ~root:0 ids in
  check_int "height is 5" 5 (Tree.height t);
  check_int "parent of 5" 4 t.Tree.parent.(5)

let test_of_edge_ids_rejects_nonspanning () =
  let g = Generators.ring 6 in
  check_bool "too few edges" true
    (try
       ignore (Tree.of_edge_ids g ~root:0 [ 0; 1 ]);
       false
     with Invalid_argument _ -> true)

let test_bfs_tree_depth_matches_dist () =
  List.iter
    (fun (name, g) ->
      let t = Tree.bfs_tree g ~root:0 in
      let r = Bfs.run g ~source:0 in
      check_bool (name ^ " depths = bfs dists") true (t.Tree.depth = r.Bfs.dist))
    (small_connected_graphs ())

let test_lca_fixed () =
  let t = fixed_tree () in
  Mincut_util.Scratch.frame @@ fun sc ->
  let lca = Tree.Lca.build sc t in
  check_int "lca(3,6)" 1 (Tree.Lca.query lca 3 6);
  check_int "lca(3,5)" 0 (Tree.Lca.query lca 3 5);
  check_int "lca(4,6)" 4 (Tree.Lca.query lca 4 6);
  check_int "lca(v,v)" 3 (Tree.Lca.query lca 3 3);
  check_int "lca with root" 0 (Tree.Lca.query lca 0 6)

(* A random tree whose parent is one of the three nodes before it, so
   it is deep (about n/2) and bushy at once; labels are shuffled so
   depth does not follow node order. *)
let deep_random_tree rng n =
  let label = Array.init n Fun.id in
  Mincut_util.Rng.shuffle rng label;
  let parent = Array.make n (-1) and parent_edge = Array.make n (-1) in
  for i = 1 to n - 1 do
    let p = i - 1 - Mincut_util.Rng.int rng (Int.min i 3) in
    parent.(label.(i)) <- label.(p);
    parent_edge.(label.(i)) <- i - 1
  done;
  Tree.of_parents ~graph_n:n ~root:label.(0) ~parent ~parent_edge

let test_lca_matches_naive_random () =
  let rng = Mincut_util.Rng.create 31 in
  let trees =
    List.concat_map
      (fun n ->
        [
          Tree.bfs_tree (Generators.random_tree ~rng n) ~root:(Mincut_util.Rng.int rng n);
          Tree.bfs_tree (Generators.path n) ~root:0;
          Tree.bfs_tree (Generators.path n) ~root:(n / 2);
          deep_random_tree rng n;
        ])
      [ 2; 3; 17; 40; 128; 300 ]
    @ [ Tree.bfs_tree (Generators.spider ~legs:6 ~leg_length:50) ~root:0 ]
  in
  List.iter
    (fun t ->
      let n = Tree.n_nodes t in
      Mincut_util.Scratch.frame @@ fun sc ->
      let lca = Tree.Lca.build sc t in
      for _ = 1 to 100 do
        let a = Mincut_util.Rng.int rng n and b = Mincut_util.Rng.int rng n in
        check_int "lca vs naive" (naive_lca t a b) (Tree.Lca.query lca a b)
      done;
      (* every node against the root and against itself, and every
         tree edge: the range-minimum's end cases *)
      for v = 0 to n - 1 do
        check_int "lca with root" t.Tree.root (Tree.Lca.query lca v t.Tree.root);
        check_int "lca with self" v (Tree.Lca.query lca v v);
        if t.Tree.parent.(v) <> -1 then
          check_int "lca with parent" t.Tree.parent.(v) (Tree.Lca.query lca t.Tree.parent.(v) v)
      done)
    trees

let test_mst_known_weights () =
  (* square with diagonal: MST must take the three lightest edges *)
  let g = Graph.create ~n:4 [ (0, 1, 1); (1, 2, 2); (2, 3, 5); (0, 3, 4); (0, 2, 3) ] in
  let w ids = Mst_seq.tree_weight g ids in
  check_int "kruskal weight" 7 (w (Mst_seq.kruskal g));
  check_int "prim weight" 7 (w (Mst_seq.prim g));
  check_int "boruvka weight" 7 (w (Mst_seq.boruvka g))

let test_mst_algorithms_agree () =
  List.iter
    (fun (name, g) ->
      let wk = Mst_seq.tree_weight g (Mst_seq.kruskal g) in
      let wp = Mst_seq.tree_weight g (Mst_seq.prim g) in
      let wb = Mst_seq.tree_weight g (Mst_seq.boruvka g) in
      check_int (name ^ " kruskal=prim") wk wp;
      check_int (name ^ " kruskal=boruvka") wk wb)
    (small_connected_graphs ())

let test_mst_is_spanning_tree () =
  List.iter
    (fun (name, g) ->
      check_bool (name ^ " kruskal spans") true (Mst_seq.is_spanning_tree g (Mst_seq.kruskal g));
      check_bool (name ^ " boruvka spans") true (Mst_seq.is_spanning_tree g (Mst_seq.boruvka g)))
    (small_connected_graphs ())

let test_kruskal_by_custom_order () =
  (* maximize instead of minimize by flipping the comparison *)
  let g = Graph.create ~n:3 [ (0, 1, 1); (1, 2, 2); (0, 2, 3) ] in
  let ids =
    Mst_seq.kruskal_by g ~cmp:(fun a b ->
        match compare b.Graph.w a.Graph.w with 0 -> compare a.Graph.id b.Graph.id | c -> c)
  in
  check_int "max spanning tree weight" 5 (Mst_seq.tree_weight g ids)

let test_boruvka_forest_on_disconnected () =
  let g = Graph.create ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  check_int "forest has 2 edges" 2 (List.length (Mst_seq.boruvka g))

let qcheck_tests =
  [
    qtest "bfs tree: sizes sum bounded and root spans all" (arbitrary_connected ())
      (fun g ->
        let t = Tree.bfs_tree g ~root:0 in
        t.Tree.size.(0) = Graph.n g);
    qtest "lca of edge endpoints is an ancestor of both" (arbitrary_connected ())
      (fun g ->
        let t = Tree.bfs_tree g ~root:0 in
        Mincut_util.Scratch.frame @@ fun sc ->
        let lca = Tree.Lca.build sc t in
        Array.for_all
          (fun e ->
            let l = Tree.Lca.query lca e.Graph.u e.Graph.v in
            Tree.is_ancestor t l e.Graph.u && Tree.is_ancestor t l e.Graph.v)
          (Graph.edges g));
    qtest "mst weight minimal vs 50 random spanning trees" (arbitrary_connected ~max_n:10 ())
      (fun g ->
        let opt = Mst_seq.tree_weight g (Mst_seq.kruskal g) in
        let rng = Mincut_util.Rng.create (Graph.n g + Graph.m g) in
        let random_spanning_weight () =
          (* random order kruskal = a uniform-ish spanning tree *)
          let perm = Array.init (Graph.m g) (fun i -> i) in
          Mincut_util.Rng.shuffle rng perm;
          let order = Array.make (Graph.m g) 0 in
          Array.iteri (fun pos id -> order.(id) <- pos) perm;
          let ids =
            Mst_seq.kruskal_by g ~cmp:(fun a b ->
                compare order.(a.Graph.id) order.(b.Graph.id))
          in
          Mst_seq.tree_weight g ids
        in
        let ok = ref true in
        for _ = 1 to 50 do
          if random_spanning_weight () < opt then ok := false
        done;
        !ok);
  ]

(* A spanning tree of a graph with chords, as (graph, root, tree edge
   ids in shuffled order).  Shapes: 0 a random recursive tree, 1 a
   path-like deep tree (each node hangs one or two places up), 2 a
   star.  Nodes are relabelled at random and the tree edges scattered
   among the chords, so ids, labels and child orders are all mixed. *)
let spanning_case (seed, n, shape) =
  let rng = Mincut_util.Rng.create seed in
  let label = Array.init n Fun.id in
  Mincut_util.Rng.shuffle rng label;
  let tree_edges =
    List.init (n - 1) (fun j ->
        let i = j + 1 in
        let p =
          match shape with
          | 0 -> Mincut_util.Rng.int rng i
          | 1 -> i - 1 - Mincut_util.Rng.int rng (Int.min i 2)
          | _ -> 0
        in
        let a = label.(i) and b = label.(p) in
        if Mincut_util.Rng.int rng 2 = 0 then (a, b, 1) else (b, a, 1))
  in
  let chords =
    List.filter
      (fun (u, v, _) -> u <> v)
      (List.init n (fun _ ->
           let u = Mincut_util.Rng.int rng n and v = Mincut_util.Rng.int rng n in
           (u, v, 1 + Mincut_util.Rng.int rng 3)))
  in
  let all = Array.of_list (tree_edges @ chords) in
  let perm = Array.init (Array.length all) Fun.id in
  Mincut_util.Rng.shuffle rng perm;
  let g = Graph.of_array ~n (Array.map (fun i -> all.(i)) perm) in
  let ids = List.filter (fun id -> perm.(id) < n - 1) (List.init (Array.length perm) Fun.id) in
  let ids = Array.of_list ids in
  Mincut_util.Rng.shuffle rng ids;
  (g, Mincut_util.Rng.int rng n, Array.to_list ids)

let spanning_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n = oneof [ int_range 2 40; int_range 257 600 ] in
    let* shape = int_range 0 2 in
    return (seed, n, shape))

(* The flat-array builders against the list-based oracles in
   [Test_helpers], field for field: the tree from edge ids and from its
   parent map, the fragment partition at targets 1, 3 and ⌈√n⌉, the
   forests of the whole tree and of its fragments, and One_respect's
   flat F(v) sets and Step 2a child-fragment items. *)
let flat_builders_match case =
  let g, root, ids = spanning_case case in
  let n = Graph.n g in
  let t = Tree.of_edge_ids g ~root ids in
  let r = ref_of_edge_ids g ~root ids in
  tree_matches t r
  && tree_matches
       (Tree.of_parents ~graph_n:n ~root ~parent:t.Tree.parent ~parent_edge:t.Tree.parent_edge)
       r
  && Mincut_congest.Primitives.forest_of_parents t.Tree.parent
     = ref_forest_of_parents t.Tree.parent
  && List.for_all
       (fun target ->
         let fr = Mincut_mst.Fragments.partition t ~target in
         let links = Mincut_core.One_respect.frag_links t fr in
         partition_matches fr (ref_partition t ~target)
         && links = ref_forest_of_parents links.Mincut_congest.Primitives.parent
         && Mincut_util.Scratch.frame (fun sc ->
                csr_matches (Mincut_core.One_respect.f_sets sc t fr) (ref_f_sets t fr)
                && csr_matches
                     (Mincut_core.One_respect.child_fragment_items sc t fr)
                     (ref_child_fragment_items t fr)))
       [ 1; 3; Mincut_core.Params.sqrt_target ~n ]

let test_flat_builders_raise_oracle_messages () =
  let msg f = match f () with _ -> "no exception" | exception Invalid_argument m -> m in
  let same name flat oracle =
    let m = msg flat in
    Alcotest.(check string) name (msg oracle) m;
    check_bool (name ^ " raises") true (m <> "no exception")
  in
  let ring = Generators.ring 6 in
  let tri = Graph.create ~n:4 [ (0, 1, 1); (1, 2, 1); (0, 2, 1); (2, 3, 1) ] in
  let edge_ids name g ids =
    same name
      (fun () -> ignore (Tree.of_edge_ids g ~root:0 ids))
      (fun () -> ignore (ref_of_edge_ids g ~root:0 ids))
  in
  edge_ids "too few edges" ring [ 0; 1; 2; 3 ];
  edge_ids "too many edges" ring [ 0; 1; 2; 3; 4; 5 ];
  edge_ids "a cycle leaves a node out" tri [ 0; 1; 2 ];
  edge_ids "a repeated id" tri [ 0; 0; 3 ];
  let parents name ~root parent =
    let parent_edge = Array.make (Array.length parent) (-1) in
    same name
      (fun () ->
        ignore (Tree.of_parents ~graph_n:(Array.length parent) ~root ~parent ~parent_edge))
      (fun () ->
        ignore (ref_of_parents ~graph_n:(Array.length parent) ~root ~parent ~parent_edge))
  in
  parents "cyclic parent array" ~root:0 [| -1; 2; 1 |];
  parents "cycle through a longer loop" ~root:0 [| -1; 0; 3; 4; 2 |];
  parents "parent out of range" ~root:0 [| -1; 7; 0 |];
  parents "root with a parent" ~root:0 [| 1; -1 |];
  let t = Tree.of_edge_ids ring ~root:0 [ 0; 1; 2; 3; 4 ] in
  same "partition target 0"
    (fun () -> ignore (Mincut_mst.Fragments.partition t ~target:0))
    (fun () -> ignore (ref_partition t ~target:0))

let suite =
  [
    tc "tree: of_parents basic" test_of_parents_basic;
    tc "tree: rejects cycles" test_of_parents_rejects_cycle;
    tc "tree: rejects bad root" test_of_parents_rejects_bad_root;
    tc "tree: preorder property" test_preorder_property;
    tc "tree: is_ancestor" test_is_ancestor;
    tc "tree: ancestors list" test_ancestors_list;
    tc "tree: accumulate_up" test_accumulate_up;
    tc "tree: subtree members" test_subtree_members;
    tc "tree: children mirror parents" test_children_mirror_parents;
    tc "tree: of_edge_ids" test_of_edge_ids;
    tc "tree: of_edge_ids rejects non-spanning" test_of_edge_ids_rejects_nonspanning;
    tc "tree: bfs tree depths" test_bfs_tree_depth_matches_dist;
    tc "lca: fixed cases" test_lca_fixed;
    tc "lca: matches naive on random trees" test_lca_matches_naive_random;
    tc "mst: known weights" test_mst_known_weights;
    tc "mst: algorithms agree" test_mst_algorithms_agree;
    tc "mst: spanning property" test_mst_is_spanning_tree;
    tc "mst: custom order (max tree)" test_kruskal_by_custom_order;
    tc "mst: boruvka forest when disconnected" test_boruvka_forest_on_disconnected;
  ]
  @ qcheck_tests
  @ [
      qtest ~count:60 "flat builders = list oracles on random spanning trees" spanning_gen
        flat_builders_match;
      tc "flat builders raise the oracles' messages" test_flat_builders_raise_oracle_messages;
    ]
