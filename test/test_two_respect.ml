open Test_helpers
module Two_respect = Mincut_core.Two_respect
module One_respect_seq = Mincut_core.One_respect_seq
module Params = Mincut_core.Params
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Mst_seq = Mincut_graph.Mst_seq
module Bitset = Mincut_util.Bitset
module Rng = Mincut_util.Rng

let lambda_of g = (Stoer_wagner.run g).Stoer_wagner.value

let test_never_worse_than_one_respect () =
  List.iter
    (fun (name, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      let one = One_respect_seq.run g tree in
      let two = Two_respect.run g tree in
      check_bool (name ^ " two <= one") true
        (two.Two_respect.value <= one.One_respect_seq.best_value))
    (small_connected_graphs ())

let test_side_consistency () =
  List.iter
    (fun (name, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      let two = Two_respect.run g tree in
      check_int (name ^ " side value") two.Two_respect.value
        (Graph.cut_of_bitset g two.Two_respect.side);
      let c = Bitset.cardinal two.Two_respect.side in
      check_bool (name ^ " proper side") true (c >= 1 && c <= Graph.n g - 1))
    (small_connected_graphs ())

let test_lower_bounded_by_lambda () =
  List.iter
    (fun (name, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      let two = Two_respect.run g tree in
      check_bool (name ^ " >= λ") true (two.Two_respect.value >= lambda_of g))
    (small_connected_graphs ())

(* brute-force reference: min over all 1- and 2-node candidates evaluated
   from the cut definition *)
let brute_two_respect g tree =
  let n = Graph.n g in
  let root = tree.Tree.root in
  let best = ref max_int in
  for v = 0 to n - 1 do
    if v <> root then begin
      let side1 u = Tree.is_ancestor tree v u in
      best := min !best (Graph.cut_value g ~in_cut:side1);
      for w = v + 1 to n - 1 do
        if w <> root then begin
          let in_cut u =
            if Tree.is_ancestor tree v w then
              Tree.is_ancestor tree v u && not (Tree.is_ancestor tree w u)
            else if Tree.is_ancestor tree w v then
              Tree.is_ancestor tree w u && not (Tree.is_ancestor tree v u)
            else Tree.is_ancestor tree v u || Tree.is_ancestor tree w u
          in
          (* skip empty/full sides *)
          let size = ref 0 in
          for u = 0 to n - 1 do
            if in_cut u then incr size
          done;
          if !size >= 1 && !size <= n - 1 then
            best := min !best (Graph.cut_value g ~in_cut)
        end
      done
    end
  done;
  !best

let test_matches_brute_force () =
  List.iter
    (fun (name, g) ->
      if Graph.n g <= 16 then begin
        let tree = Tree.bfs_tree g ~root:0 in
        let two = Two_respect.run g tree in
        check_int (name ^ " = brute 2-respect") (brute_two_respect g tree)
          two.Two_respect.value
      end)
    (small_connected_graphs ())

let test_ring_needs_two () =
  (* on a ring, a min cut (2 edges) can never 1-respect a spanning tree
     rooted anywhere: the 2-respecting machinery is necessary *)
  let g = Generators.ring 8 in
  let tree = Tree.of_edge_ids g ~root:0 [ 0; 1; 2; 3; 4; 5; 6 ] (* path tree *) in
  let one = One_respect_seq.run g tree in
  let two = Two_respect.run g tree in
  check_int "1-respect misses" 2 one.One_respect_seq.best_value;
  (* actually cutting one path edge gives cut 2 here; use weighted ring
     to force a gap *)
  ignore two;
  let g =
    Graph.create ~n:6
      [ (0, 1, 1); (1, 2, 5); (2, 3, 1); (3, 4, 5); (4, 5, 5); (0, 5, 5) ]
  in
  let tree = Tree.of_edge_ids g ~root:0 [ 0; 1; 2; 3; 4 ] in
  let one = One_respect_seq.run g tree in
  let two = Two_respect.run g tree in
  (* λ = 2: cut the two weight-1 edges {1-2 side}; the best 1-respecting
     cut must cut the cycle twice... via subtree cuts it pays more *)
  check_int "λ" 2 (lambda_of g);
  check_int "2-respect finds λ" 2 two.Two_respect.value;
  check_bool "1-respect cannot" true (one.One_respect_seq.best_value > 2);
  match two.Two_respect.kind with
  | Two_respect.Two _ -> ()
  | Two_respect.One _ -> Alcotest.fail "expected a 2-respecting winner"

let test_min_cut_exact_small_budget () =
  List.iter
    (fun (name, g) ->
      let r = Two_respect.min_cut ~params:Params.fast g in
      check_int (name ^ " exact with log-trees budget") (lambda_of g)
        r.Two_respect.value)
    (small_connected_graphs ())

let test_min_cut_disconnected () =
  let g = Graph.create ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  check_int "zero" 0 (Two_respect.min_cut g).Two_respect.value

let test_uses_fewer_trees_than_one_respect () =
  (* the headline benefit: λ-independent tree budget *)
  let rng = Rng.create 3 in
  let g = Generators.complete ~weights:{ Generators.wmin = 2; wmax = 6 } ~rng 14 in
  let r = Two_respect.min_cut ~params:Params.fast g in
  check_int "exact on dense weighted" (lambda_of g) r.Two_respect.value

(* [min_cut] as written before it swept each distinct packing tree once:
   [run] on every packed tree in index order, with the <=-tie-break *)
let min_cut_every_tree ~params ~trees g =
  let module Tree_packing = Mincut_treepack.Tree_packing in
  let module Cost = Mincut_congest.Cost in
  let n = Graph.n g in
  let packing = Tree_packing.greedy g ~trees in
  let diameter = Tree.height (Tree.bfs_tree g ~root:0) in
  let sweep = ref Cost.zero and best = ref None in
  Array.iteri
    (fun i ids ->
      let r = Two_respect.run ~params g (Tree.of_edge_ids g ~root:0 ids) in
      sweep :=
        Cost.( ++ ) !sweep
          (Cost.group (Printf.sprintf "tree %d: 2-respect sweep" (i + 1)) r.Two_respect.cost);
      match !best with
      | Some b when b.Two_respect.value <= r.Two_respect.value -> ()
      | _ -> best := Some r)
    packing.Tree_packing.trees;
  let c_pack =
    Tree_packing.distributed_cost ~n ~diameter ~trees
      ~per_tree_rounds:(Params.kp_mst_rounds params ~n ~diameter)
  in
  {
    (Option.get !best) with
    Two_respect.cost = Cost.( ++ ) c_pack (Cost.group "per-tree 2-respect sweeps" !sweep);
  }

let same_min_cut (a : Two_respect.result) (b : Two_respect.result) =
  let module Cost = Mincut_congest.Cost in
  a.Two_respect.value = b.Two_respect.value
  && Bitset.equal a.Two_respect.side b.Two_respect.side
  && a.Two_respect.kind = b.Two_respect.kind
  && Mincut_util.Json.to_string (Cost.to_json a.Two_respect.cost)
     = Mincut_util.Json.to_string (Cost.to_json b.Two_respect.cost)

let test_min_cut_every_tree () =
  List.iter
    (fun (name, g, trees) ->
      check_bool (name ^ ": min_cut = every-tree loop") true
        (same_min_cut
           (Two_respect.min_cut ~params:Params.fast ~trees g)
           (min_cut_every_tree ~params:Params.fast ~trees g)))
    [
      ("cliques8x16", Generators.path_of_cliques ~clique:8 ~length:16, 14);
      ("torus8", Generators.torus 8 8, 12);
    ]

let prop_min_cut_every_tree =
  qtest ~count:40 "min_cut = every-tree loop on small weighted graphs"
    QCheck2.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* n = int_range 2 9 in
      let* wmax = int_range 1 6 in
      let* trees = int_range 1 24 in
      return
        ( Generators.gnp_connected ~rng:(Rng.create seed)
            ~weights:{ Generators.wmin = 1; wmax }
            n 0.6,
          trees ))
    (fun (g, trees) ->
      same_min_cut
        (Two_respect.min_cut ~params:Params.fast ~trees g)
        (min_cut_every_tree ~params:Params.fast ~trees g))

let qcheck_tests =
  [
    qtest ~count:40 "2-respect = brute on random" (arbitrary_connected ~max_n:10 ())
      (fun g ->
        let tree = Tree.bfs_tree g ~root:0 in
        (Two_respect.run g tree).Two_respect.value = brute_two_respect g tree);
    qtest ~count:40 "packing + 2-respect = λ with 8 trees"
      (arbitrary_connected ~max_n:12 ())
      (fun g ->
        (Two_respect.min_cut ~params:Params.fast ~trees:8 g).Two_respect.value
        = lambda_of g);
    qtest ~count:40 "mst tree: 2-respect within the tree's possibilities"
      (arbitrary_connected ~max_n:10 ())
      (fun g ->
        let tree = Tree.of_edge_ids g ~root:0 (Mst_seq.kruskal g) in
        let r = Two_respect.run g tree in
        Graph.cut_of_bitset g r.Two_respect.side = r.Two_respect.value);
  ]

let suite =
  [
    tc "2-respect: never worse than 1-respect" test_never_worse_than_one_respect;
    tc "2-respect: side consistency" test_side_consistency;
    tc "2-respect: lower bounded by λ" test_lower_bounded_by_lambda;
    tc "2-respect: matches brute force" test_matches_brute_force;
    tc "2-respect: ring needs two crossings" test_ring_needs_two;
    tc "2-respect: exact with log-sized packings" test_min_cut_exact_small_budget;
    tc "2-respect: disconnected" test_min_cut_disconnected;
    tc "2-respect: dense weighted exactness" test_uses_fewer_trees_than_one_respect;
  ]
  @ qcheck_tests
  @ [
      tc "2-respect: min_cut = every-tree loop on a clique path and a torus"
        test_min_cut_every_tree;
      prop_min_cut_every_tree;
    ]
