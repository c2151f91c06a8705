open Test_helpers
module Bitset = Mincut_util.Bitset
module Union_find = Mincut_graph.Union_find
module Diameter = Mincut_graph.Diameter
module Dimacs = Mincut_graph.Dimacs

let test_create_basic () =
  let g = Graph.create ~n:3 [ (0, 1, 2); (1, 2, 3) ] in
  check_int "n" 3 (Graph.n g);
  check_int "m" 2 (Graph.m g);
  check_int "weight" 2 (Graph.weight g 0);
  check_int "total weight" 5 (Graph.total_weight g)

let test_create_normalizes_endpoints () =
  let g = Graph.create ~n:3 [ (2, 0, 1) ] in
  check_bool "u < v" true (Graph.endpoints g 0 = (0, 2))

let test_create_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self loop")
    (fun () -> ignore (Graph.create ~n:2 [ (1, 1, 1) ]))

let test_create_rejects_bad_weight () =
  Alcotest.check_raises "weight" (Invalid_argument "Graph.create: non-positive weight")
    (fun () -> ignore (Graph.create ~n:2 [ (0, 1, 0) ]))

let test_create_rejects_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.create: endpoint out of range (0,5), n=3") (fun () ->
      ignore (Graph.create ~n:3 [ (0, 5, 1) ]))

let test_parallel_edges_kept () =
  let g = Graph.create ~n:2 [ (0, 1, 1); (0, 1, 2) ] in
  check_int "multigraph m" 2 (Graph.m g);
  check_int "weighted degree sums parallels" 3 (Graph.weighted_degree g 0)

let test_degrees () =
  let g = Graph.create ~n:4 [ (0, 1, 5); (0, 2, 1); (0, 3, 2) ] in
  check_int "star center degree" 3 (Graph.degree g 0);
  check_int "star center wdeg" 8 (Graph.weighted_degree g 0);
  check_int "leaf degree" 1 (Graph.degree g 1);
  check_int "leaf wdeg" 5 (Graph.weighted_degree g 1)

let test_other_endpoint () =
  let g = Graph.create ~n:3 [ (0, 2, 1) ] in
  check_int "other of 0" 2 (Graph.other_endpoint g 0 0);
  check_int "other of 2" 0 (Graph.other_endpoint g 0 2)

let test_cut_value_manual () =
  (* triangle with weights 1,2,3: cutting off node 0 counts edges 0-1, 0-2 *)
  let g = Graph.create ~n:3 [ (0, 1, 1); (0, 2, 2); (1, 2, 3) ] in
  check_int "C({0})" 3 (Graph.cut_value g ~in_cut:(fun v -> v = 0));
  check_int "C({1})" 4 (Graph.cut_value g ~in_cut:(fun v -> v = 1));
  check_int "C({2})" 5 (Graph.cut_value g ~in_cut:(fun v -> v = 2));
  check_int "C(V) = 0" 0 (Graph.cut_value g ~in_cut:(fun _ -> true))

let test_cut_symmetry () =
  List.iter
    (fun (_, g) ->
      let side = Bitset.create (Graph.n g) in
      Bitset.add side 0;
      let c1 = Graph.cut_of_bitset g side in
      Bitset.complement_inplace side;
      check_int "C(X) = C(V-X)" c1 (Graph.cut_of_bitset g side))
    (small_connected_graphs ())

let test_sub_by_edges () =
  let g = Graph.create ~n:3 [ (0, 1, 1); (1, 2, 2); (0, 2, 3) ] in
  let h = Graph.sub_by_edges g ~keep:(fun e -> e.Graph.w >= 2) in
  check_int "kept 2" 2 (Graph.m h);
  check_int "same n" 3 (Graph.n h)

let test_reweight_drops_nonpositive () =
  let g = Graph.create ~n:3 [ (0, 1, 1); (1, 2, 2) ] in
  let h = Graph.reweight g ~f:(fun e -> e.Graph.w - 1) in
  check_int "dropped zero-weight" 1 (Graph.m h);
  check_int "reweighted" 1 (Graph.weight h 0)

let test_equal_structure () =
  let a = Graph.create ~n:3 [ (0, 1, 1); (1, 2, 2) ] in
  let b = Graph.create ~n:3 [ (2, 1, 2); (1, 0, 1) ] in
  let c = Graph.create ~n:3 [ (0, 1, 1); (1, 2, 3) ] in
  check_bool "order-insensitive equal" true (Graph.equal_structure a b);
  check_bool "weight-sensitive" false (Graph.equal_structure a c)

let test_union_find_basics () =
  let uf = Union_find.create 5 in
  check_int "initial count" 5 (Union_find.count uf);
  check_bool "union works" true (Union_find.union uf 0 1);
  check_bool "re-union is false" false (Union_find.union uf 0 1);
  check_bool "same" true (Union_find.same uf 0 1);
  check_bool "not same" false (Union_find.same uf 0 2);
  check_int "count after union" 4 (Union_find.count uf);
  Union_find.reset uf;
  check_int "reset count" 5 (Union_find.count uf);
  check_bool "reset separates" false (Union_find.same uf 0 1);
  check_bool "union after reset" true (Union_find.union uf 0 1)

let test_union_find_transitivity () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 3 4);
  check_bool "transitive" true (Union_find.same uf 0 2);
  check_bool "separate" false (Union_find.same uf 2 3);
  let sizes =
    List.init 6 (fun r ->
        List.length
          (List.filter (fun v -> Union_find.find uf v = r) (List.init 6 Fun.id)))
    |> List.filter (fun l -> l > 0)
    |> List.sort compare
  in
  check_bool "group sizes" true (sizes = [ 1; 2; 3 ])

let test_bfs_path () =
  let g = Generators.path 5 in
  let r = Bfs.run g ~source:0 in
  check_int "dist to end" 4 r.Bfs.dist.(4);
  check_int "parent chain" 3 r.Bfs.parent.(4);
  check_int "source parent" (-1) r.Bfs.parent.(0)

let test_bfs_disconnected () =
  let g = Graph.create ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  let r = Bfs.run g ~source:0 in
  check_int "unreachable" (-1) r.Bfs.dist.(2);
  check_bool "not connected" false (Bfs.is_connected g);
  check_bool "component of 0" true
    (Bitset.to_list (Bfs.component_of g 0) = [ 0; 1 ]);
  check_bool "component of 3" true
    (Bitset.to_list (Bfs.component_of g 3) = [ 2; 3 ])

(* the solvers read the diameter as [Bfs.eccentricity] instead of
   building the BFS tree *)
let test_bfs_eccentricity_is_tree_height () =
  List.iter
    (fun (name, g) ->
      for root = 0 to Graph.n g - 1 do
        check_int (Printf.sprintf "%s root %d" name root)
          (Tree.height (Tree.bfs_tree g ~root))
          (Bfs.eccentricity g root)
      done)
    (small_connected_graphs ())

let test_min_degree_node () =
  (* weighted degrees 3, 3, 2, 2: the first of the tied minimum *)
  let g = Graph.create ~n:4 [ (0, 1, 2); (1, 2, 1); (2, 3, 1); (3, 0, 1) ] in
  check_int "lowest index of the least degree" 2 (Graph.min_degree_node g);
  check_int "one node" 0 (Graph.min_degree_node (Graph.create ~n:1 []));
  List.iter
    (fun (name, g) ->
      let v = Graph.min_degree_node g in
      for u = 0 to Graph.n g - 1 do
        let du = Graph.weighted_degree g u and dv = Graph.weighted_degree g v in
        check_bool (Printf.sprintf "%s node %d" name u) true (dv < du || (dv = du && v <= u))
      done)
    (small_connected_graphs ())

let test_diameter_known () =
  check_int "path" 9 (Diameter.exact (Generators.path 10));
  check_int "ring even" 4 (Diameter.exact (Generators.ring 8));
  check_int "ring odd" 4 (Diameter.exact (Generators.ring 9));
  check_int "complete" 1 (Diameter.exact (Generators.complete 6));
  check_int "grid" 5 (Diameter.exact (Generators.grid 3 4));
  check_int "hypercube" 4 (Diameter.exact (Generators.hypercube 4));
  check_int "wheel" 2 (Diameter.exact (Generators.wheel 8))

let test_diameter_double_sweep_tree_exact () =
  let rng = Mincut_util.Rng.create 77 in
  for _ = 1 to 20 do
    let g = Generators.random_tree ~rng 30 in
    check_int "double sweep exact on trees" (Diameter.exact g) (Diameter.double_sweep g)
  done

let test_diameter_double_sweep_lower_bound () =
  List.iter
    (fun (name, g) ->
      check_bool name true (Diameter.double_sweep g <= Diameter.exact g))
    (small_connected_graphs ())

let test_generator_sizes () =
  check_int "grid n" 12 (Graph.n (Generators.grid 3 4));
  check_int "torus m" 18 (Graph.m (Generators.torus 3 3));
  check_int "complete m" 15 (Graph.m (Generators.complete 6));
  check_int "hypercube m" 32 (Graph.m (Generators.hypercube 4));
  check_int "barbell n" 8 (Graph.n (Generators.barbell 4));
  check_int "barbell m" 13 (Graph.m (Generators.barbell 4));
  check_int "caterpillar n" 9 (Graph.n (Generators.caterpillar 3 2));
  check_int "path-of-cliques n" 12 (Graph.n (Generators.path_of_cliques ~clique:4 ~length:3))

let test_generator_connectivity () =
  List.iter
    (fun (name, g) -> check_bool (name ^ " connected") true (Bfs.is_connected g))
    (small_connected_graphs ())

let test_random_regular_degrees () =
  let rng = Mincut_util.Rng.create 123 in
  let g = Generators.random_regular ~rng 12 3 in
  for v = 0 to 11 do
    check_int "regular degree" 3 (Graph.degree g v)
  done

let test_random_tree_edge_count () =
  let rng = Mincut_util.Rng.create 5 in
  let g = Generators.random_tree ~rng 40 in
  check_int "tree edges" 39 (Graph.m g);
  check_bool "tree connected" true (Bfs.is_connected g)

let test_gnp_extreme_p () =
  let rng = Mincut_util.Rng.create 6 in
  check_int "p=0 empty" 0 (Graph.m (Generators.gnp ~rng 10 0.0));
  check_int "p=1 complete" 45 (Graph.m (Generators.gnp ~rng 10 1.0))

let test_gnp_density () =
  let rng = Mincut_util.Rng.create 8 in
  let g = Generators.gnp ~rng 60 0.3 in
  let expected = 0.3 *. float_of_int (60 * 59 / 2) in
  let got = float_of_int (Graph.m g) in
  check_bool "within 25% of expectation" true
    (abs_float (got -. expected) < 0.25 *. expected)

let test_dimacs_roundtrip () =
  List.iter
    (fun (name, g) ->
      let g' = Dimacs.of_string (Dimacs.to_string g) in
      check_bool (name ^ " roundtrip") true (Graph.equal_structure g g'))
    (small_connected_graphs ())

let test_dimacs_rejects_garbage () =
  check_bool "missing header" true
    (try
       ignore (Dimacs.of_string "e 0 1 2\n");
       false
     with Failure _ -> true);
  check_bool "bad integer" true
    (try
       ignore (Dimacs.of_string "p 2 1\ne 0 x 1\n");
       false
     with Failure _ -> true);
  check_bool "edge count mismatch" true
    (try
       ignore (Dimacs.of_string "p 2 2\ne 0 1 1\n");
       false
     with Failure _ -> true)

let test_spider_shape () =
  let g = Generators.spider ~legs:4 ~leg_length:3 in
  check_int "n" 13 (Graph.n g);
  check_int "m = n-1 (tree)" 12 (Graph.m g);
  check_int "hub degree" 4 (Graph.degree g 0);
  check_bool "connected" true (Bfs.is_connected g);
  check_int "diameter = 2 legs" 6 (Mincut_graph.Diameter.exact g)

let test_spider_single_leg () =
  let g = Generators.spider ~legs:1 ~leg_length:5 in
  check_int "path-like" 6 (Graph.n g);
  check_int "diameter" 5 (Mincut_graph.Diameter.exact g)

let test_family_factory_all () =
  let rng = Mincut_util.Rng.create 1 in
  List.iter
    (fun name ->
      match Generators.by_name ~rng ~name ~size:8 () with
      | Ok g ->
          check_bool (name ^ " nonempty") true (Graph.n g >= 2);
          check_bool (name ^ " connected") true (Bfs.is_connected g)
      | Error e -> Alcotest.fail e)
    Generators.family_names

let test_family_factory_unknown () =
  let rng = Mincut_util.Rng.create 1 in
  check_bool "unknown family" true
    (match Generators.by_name ~rng ~name:"nonsense" ~size:8 () with
     | Error _ -> true
     | Ok _ -> false)

(* [Generators.check_size] counts in closed form what [by_name] builds *)
let test_family_counts_match_built () =
  let rng = Mincut_util.Rng.create 1 in
  List.iter
    (fun name ->
      check_bool (name ^ " known") true (Result.is_ok (Generators.check_size ~name ~size:8));
      for size = 1 to 9 do
        match (Generators.check_size ~name ~size, Generators.by_name ~rng ~name ~size ()) with
        | Ok (n, m), Ok g ->
            let label = Printf.sprintf "%s size %d" name size in
            check_int (label ^ " n") n (Graph.n g);
            (* gnp and planted draw their edges; their count is expected *)
            if name <> "gnp" && name <> "planted" then check_int (label ^ " m") m (Graph.m g)
        | Error _, Error _ -> ()
        | _ -> Alcotest.fail (Printf.sprintf "%s size %d: check and build disagree" name size)
      done)
    Generators.family_names

(* sizes below a family's smallest, or above the node or edge cap, are
   typed errors; every case here is refused before anything is built *)
let test_family_size_caps () =
  let rng = Mincut_util.Rng.create 1 in
  let refused ~name ~size =
    match Generators.by_name ~rng ~name ~size () with Error _ -> true | Ok _ -> false
  in
  List.iter
    (fun name ->
      List.iter
        (fun size ->
          check_bool (Printf.sprintf "%s size %d refused" name size) true (refused ~name ~size))
        [ 0; -5; min_int; max_int ])
    Generators.family_names;
  List.iter
    (fun (name, size) ->
      check_bool (Printf.sprintf "%s below its smallest size" name) true (refused ~name ~size))
    [ ("ring", 2); ("torus", 2); ("wheel", 3); ("regular", 4); ("barbell", 1); ("planted", 3) ];
  let ok name size = Result.is_ok (Generators.check_size ~name ~size) in
  let cap = Graph.max_nodes in
  check_bool "path at the node cap" true (ok "path" cap);
  check_bool "path at the node cap + 1" false (ok "path" (cap + 1));
  check_bool "torus 2048 (n = 2^22)" true
    (Generators.check_size ~name:"torus" ~size:2048 = Ok (cap, 2 * cap));
  check_bool "torus 2049" false (ok "torus" 2049);
  check_bool "torus 16384 (n = 2^28)" false (ok "torus" 16384);
  (match Generators.by_name ~rng ~name:"torus" ~size:16384 () with
  | Error e -> check_bool "message names the node cap" true (contains ~sub:"above the cap of 4194304" e)
  | Ok _ -> Alcotest.fail "torus 16384 built");
  (* complete: 5793·5792/2 edges fit under 2^24, 5794·5793/2 do not *)
  check_bool "complete 5793" true (ok "complete" 5793);
  check_bool "complete 5794" false (ok "complete" 5794);
  check_bool "hypercube 20" true (ok "hypercube" 20);
  List.iter
    (fun d -> check_bool (Printf.sprintf "hypercube %d" d) false (ok "hypercube" d))
    [ 21; 22; 62; 63 ];
  (match Generators.check_size ~name:"spider" ~size:max_int with
  | Error e -> check_bool "4·size² saturates" true (contains ~sub:"more than max_int nodes" e)
  | Ok _ -> Alcotest.fail "spider max_int accepted");
  check_bool "unknown family" false (ok "nonsense" 8)

let test_dot_export () =
  let g = Generators.ring 4 in
  let side = Bitset.create 4 in
  Bitset.add side 0;
  Bitset.add side 1;
  let dot = Mincut_graph.Dot.to_dot ~side g in
  let count_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i acc =
      if i + n > h then acc
      else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  check_bool "has header" true (String.length dot > 10 && String.sub dot 0 5 = "graph");
  check_int "paints both side nodes" 2 (count_sub "lightblue" dot);
  (* 2 crossing edges -> two dashed-red edges *)
  check_int "crossing edges dashed" 2 (count_sub "style=dashed" dot)

let test_dimacs_rejects_oversized_header () =
  (* refused at the p line, before Graph.build allocates per node *)
  Alcotest.check_raises "n above the cap"
    (Failure
       (Printf.sprintf "Dimacs.read: line 2: n=100000000000 is above the cap of %d nodes"
          Graph.max_nodes))
    (fun () -> ignore (Dimacs.of_string "c huge\np 100000000000 1\ne 0 1 1\n"))

(* a p line below one node or zero edges is refused at that line, not
   left to Array.make or to the edge count check *)
let test_dimacs_rejects_small_header () =
  List.iter
    (fun (text, msg) ->
      Alcotest.check_raises text (Failure ("Dimacs.read: line 2: " ^ msg)) (fun () ->
          ignore (Dimacs.of_string ("c small\n" ^ text ^ "\n"))))
    [
      ("p -3 0", "n=-3 is below the minimum of 1 node");
      ("p 0 0", "n=0 is below the minimum of 1 node");
      ("p 3 -1", "m=-1 is negative");
    ]

let test_dimacs_comments_ignored () =
  let g = Dimacs.of_string "c hello\np 2 1\nc mid\ne 0 1 7\n" in
  check_int "n" 2 (Graph.n g);
  check_int "w" 7 (Graph.weight g 0)

(* A multigraph with parallel edges, endpoints given in either order
   and edge ids in shuffled order: 1..max_n nodes, each drawn pair
   repeated 1..3 times. *)
let arbitrary_multigraph ?(max_n = 12) () =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n = int_range 1 max_n in
    let* pairs = int_range 0 (3 * max_n) in
    return
      (let rng = Rng.create seed in
       let triples =
         if n < 2 then [||]
         else
           Array.concat
             (List.init pairs (fun _ ->
                  let u = Rng.int rng n in
                  let v = (u + 1 + Rng.int rng (n - 1)) mod n in
                  Array.init (1 + Rng.int rng 3) (fun _ -> (u, v, 1 + Rng.int rng 4))))
       in
       Rng.shuffle rng triples;
       Graph.of_array ~n triples))

(* node [v]'s CSR row as (neighbor, edge id) slots *)
let csr_row g v =
  let off = Graph.csr_offsets g in
  List.init
    (off.(v + 1) - off.(v))
    (fun i -> ((Graph.csr_neighbors g).(off.(v) + i), (Graph.csr_edge_ids g).(off.(v) + i)))

let csr_rows_hold_the_adjacency g =
  let rows = Array.init (Graph.n g) (csr_row g) in
  let once_in v (e : Graph.edge) =
    List.length (List.filter (fun (_, id) -> id = e.id) rows.(v)) = 1
    && List.mem (Graph.other_endpoint g e.id v, e.id) rows.(v)
  in
  Array.for_all Fun.id
    (Array.mapi
       (fun v row ->
         List.sort compare row = row
         && Graph.degree g v = List.length row
         && adj_list g v = row)
       rows)
  && Array.for_all (fun (e : Graph.edge) -> once_in e.u e && once_in e.v e) (Graph.edges g)

let qcheck_tests =
  [
    qtest "cut(singleton v) = weighted degree v" (arbitrary_connected ())
      (fun g ->
        let v = Graph.n g - 1 in
        Graph.cut_value g ~in_cut:(fun u -> u = v) = Graph.weighted_degree g v);
    qtest "sum of weighted degrees = 2 * total weight" (arbitrary_connected ())
      (fun g ->
        let sum = ref 0 in
        for v = 0 to Graph.n g - 1 do
          sum := !sum + Graph.weighted_degree g v
        done;
        !sum = 2 * Graph.total_weight g);
    qtest "dimacs roundtrip" (arbitrary_connected ()) (fun g ->
        Graph.equal_structure g (Dimacs.of_string (Dimacs.to_string g)));
    qtest "bfs distances obey triangle along edges" (arbitrary_connected ())
      (fun g ->
        let r = Bfs.run g ~source:0 in
        Array.for_all
          (fun e ->
            abs (r.Bfs.dist.(e.Graph.u) - r.Bfs.dist.(e.Graph.v)) <= 1)
          (Graph.edges g));
  ]

let suite =
  [
    tc "graph: create basic" test_create_basic;
    tc "graph: normalizes endpoints" test_create_normalizes_endpoints;
    tc "graph: rejects self loops" test_create_rejects_self_loop;
    tc "graph: rejects bad weights" test_create_rejects_bad_weight;
    tc "graph: rejects out-of-range" test_create_rejects_out_of_range;
    tc "graph: parallel edges kept" test_parallel_edges_kept;
    tc "graph: degrees" test_degrees;
    tc "graph: other_endpoint" test_other_endpoint;
    tc "graph: cut value manual" test_cut_value_manual;
    tc "graph: cut symmetry" test_cut_symmetry;
    tc "graph: sub_by_edges" test_sub_by_edges;
    tc "graph: reweight drops non-positive" test_reweight_drops_nonpositive;
    tc "graph: equal_structure" test_equal_structure;
    tc "union-find: basics" test_union_find_basics;
    tc "union-find: transitivity and groups" test_union_find_transitivity;
    tc "bfs: path distances" test_bfs_path;
    tc "bfs: disconnected" test_bfs_disconnected;
    tc "bfs: eccentricity is the bfs tree height" test_bfs_eccentricity_is_tree_height;
    tc "graph: min_degree_node takes the lowest index" test_min_degree_node;
    tc "diameter: known families" test_diameter_known;
    tc "diameter: double sweep exact on trees" test_diameter_double_sweep_tree_exact;
    tc "diameter: double sweep lower bounds" test_diameter_double_sweep_lower_bound;
    tc "generators: sizes" test_generator_sizes;
    tc "generators: connectivity" test_generator_connectivity;
    tc "generators: regular degrees" test_random_regular_degrees;
    tc "generators: random tree" test_random_tree_edge_count;
    tc "generators: gnp extremes" test_gnp_extreme_p;
    tc "generators: gnp density" test_gnp_density;
    tc "generators: spider shape" test_spider_shape;
    tc "generators: spider single leg" test_spider_single_leg;
    tc "generators: family factory" test_family_factory_all;
    tc "generators: factory rejects unknown" test_family_factory_unknown;
    tc "dot: export paints cuts" test_dot_export;
    tc "dimacs: roundtrip" test_dimacs_roundtrip;
    tc "dimacs: rejects garbage" test_dimacs_rejects_garbage;
    tc "dimacs: comments ignored" test_dimacs_comments_ignored;
  ]
  @ qcheck_tests
  @ [
      tc "generators: counts = the built graph's n and m" test_family_counts_match_built;
      tc "generators: sizes past the caps are errors" test_family_size_caps;
      qtest ~count:300 "csr: rows sorted by (neighbor, id), each edge once per endpoint"
        (arbitrary_multigraph ()) csr_rows_hold_the_adjacency;
      tc "dimacs: a header above Graph.max_nodes is refused"
        test_dimacs_rejects_oversized_header;
      tc "dimacs: a header below one node or zero edges is refused"
        test_dimacs_rejects_small_header;
    ]
