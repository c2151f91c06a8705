open Test_helpers
module Tree_packing = Mincut_treepack.Tree_packing
module Mst_seq = Mincut_graph.Mst_seq
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Bitset = Mincut_util.Bitset

let test_load_invariant_families () =
  List.iter
    (fun (name, g) ->
      let p = Tree_packing.greedy g ~trees:5 in
      check_bool (name ^ " load invariant") true (Tree_packing.load_invariant g p))
    (small_connected_graphs ())

let test_first_tree_is_mst () =
  (* with all loads zero the packing order degenerates to (weight, id),
     so the first packed tree is exactly the deterministic Kruskal MST *)
  List.iter
    (fun (name, g) ->
      let p = Tree_packing.greedy g ~trees:1 in
      check_bool (name ^ " first tree = kruskal") true
        (List.sort compare p.Tree_packing.trees.(0)
        = List.sort compare (Mst_seq.kruskal g)))
    (small_connected_graphs ())

let test_deterministic () =
  let rng = Mincut_util.Rng.create 3 in
  let g = Generators.gnp_connected ~rng 20 0.4 in
  let a = Tree_packing.greedy g ~trees:6 in
  let b = Tree_packing.greedy g ~trees:6 in
  check_bool "same packing" true (a.Tree_packing.trees = b.Tree_packing.trees)

let test_loads_spread () =
  (* on a ring, consecutive MSTs must rotate which edge is left out, so
     after n trees loads are balanced *)
  let n = 6 in
  let g = Generators.ring n in
  let p = Tree_packing.greedy g ~trees:n in
  Array.iter
    (fun l -> check_bool "balanced ring loads" true (l = n - 1))
    p.Tree_packing.loads

let test_crossings () =
  let g = Generators.ring 6 in
  let p = Tree_packing.greedy g ~trees:1 in
  (* cut {0,1,2} of the ring crosses 2 edges; a spanning tree crosses it
     1 or 2 times *)
  let in_cut v = v <= 2 in
  let c = Tree_packing.crossings g p.Tree_packing.trees.(0) ~in_cut in
  check_bool "crossings in {1,2}" true (c = 1 || c = 2)

let test_one_respecting_found_on_known_cuts () =
  (* planted cut: some packed tree must 1-respect the (unique, small)
     min cut quickly *)
  let rng = Mincut_util.Rng.create 11 in
  List.iter
    (fun cut_edges ->
      let g = Generators.planted_cut ~rng ~n:24 ~cut_edges ~p_in:0.8 () in
      let sw = Stoer_wagner.run g in
      let in_cut = Bitset.mem sw.Stoer_wagner.side in
      let p = Tree_packing.greedy g ~trees:24 in
      match Tree_packing.first_one_respecting g p ~in_cut with
      | Some i -> check_bool (Printf.sprintf "k=%d found at %d" cut_edges i) true (i < 24)
      | None -> Alcotest.failf "no 1-respecting tree found for k=%d" cut_edges)
    [ 1; 2; 3 ]

let test_bridge_always_one_respected () =
  (* λ=1: every spanning tree contains the bridge and crosses the cut once *)
  let g = Generators.barbell 5 in
  let p = Tree_packing.greedy g ~trees:3 in
  let in_cut v = v < 5 in
  Array.iter
    (fun ids -> check_int "bridge crossed once" 1 (Tree_packing.crossings g ids ~in_cut))
    p.Tree_packing.trees

let test_recommended_trees_bounds () =
  check_bool "min 8" true (Tree_packing.recommended_trees ~n:4 ~lambda_hint:1 >= 8);
  check_bool "capped" true (Tree_packing.recommended_trees ~n:100000 ~lambda_hint:1000 <= 96)

let test_theory_trees_growth () =
  check_bool "monotone in lambda" true
    (Tree_packing.theory_trees ~n:100 ~lambda:3 > Tree_packing.theory_trees ~n:100 ~lambda:2);
  check_bool "theory bound is galactic" true (Tree_packing.theory_trees ~n:1024 ~lambda:10 > 1e9)

let test_rejects_bad_input () =
  check_bool "rejects 0 trees" true
    (try
       ignore (Tree_packing.greedy (Generators.path 3) ~trees:0);
       false
     with Invalid_argument _ -> true);
  check_bool "rejects disconnected" true
    (try
       ignore (Tree_packing.greedy (Graph.create ~n:4 [ (0, 1, 1); (2, 3, 1) ]) ~trees:1);
       false
     with Invalid_argument _ -> true)

let test_first_tree_matches_distributed_mst () =
  (* the trees the packing charges at the KP bound are exactly what the
     real distributed MST computes under the same (weight, id) order *)
  List.iter
    (fun (name, g) ->
      let p = Tree_packing.greedy g ~trees:1 in
      let d = Mincut_mst.Boruvka_dist.run g in
      check_bool (name ^ " packing tree 1 = distributed MST") true
        (List.sort compare p.Tree_packing.trees.(0)
        = List.sort compare d.Mincut_mst.Boruvka_dist.edge_ids))
    (small_connected_graphs ())

(* ---- The per-tree-sort packing as an oracle ------------------------- *)

(* The packing as first written: every tree is a fresh Kruskal over all
   m edges sorted by (relative load, weight, id).  [greedy] keeps one
   order across trees instead; it must produce exactly this, trees in
   order, each tree's ids in order, and the same loads. *)
let load_order loads (a : Graph.edge) (b : Graph.edge) =
  let la = loads.(a.id) * b.w and lb = loads.(b.id) * a.w in
  match Int.compare la lb with
  | 0 -> (
      match Int.compare a.w b.w with 0 -> Int.compare a.id b.id | c -> c)
  | c -> c

let oracle g ~trees =
  let loads = Array.make (Graph.m g) 0 in
  let out = Array.make trees [] in
  for i = 0 to trees - 1 do
    let tree = Mst_seq.kruskal_by g ~cmp:(load_order loads) in
    out.(i) <- tree;
    List.iter (fun id -> loads.(id) <- loads.(id) + 1) tree
  done;
  (out, loads)

let same_as_oracle g ~trees =
  let p = Tree_packing.greedy g ~trees in
  (p.Tree_packing.trees, p.Tree_packing.loads) = oracle g ~trees

let ints xs = String.concat "," (List.map string_of_int xs)

let packing_digest (p : Tree_packing.t) =
  String.concat "|"
    (Array.to_list (Array.map ints p.Tree_packing.trees)
    @ [ ints (Array.to_list p.Tree_packing.loads) ])
  |> Digest.string |> Digest.to_hex

(* Shaped like the solve-dense benchmark inputs (G(n, 0.3) and planted
   cuts, n 96-144, at the 96-tree cap), plus a torus and a weighted
   gnp.  The digests were recorded with the per-tree-sort packing;
   regenerate them only for a change meant to alter which trees are
   packed. *)
let pinned_graphs () =
  let rng = Rng.create 20140715 in
  let weights = { Generators.wmin = 1; wmax = 9 } in
  [
    ("gnp96", Generators.gnp_connected ~rng 96 0.3);
    ("gnp144", Generators.gnp_connected ~rng 144 0.3);
    ("planted96", Generators.planted_cut ~rng ~n:96 ~cut_edges:2 ~p_in:0.4 ());
    ("planted144", Generators.planted_cut ~rng ~n:144 ~cut_edges:5 ~p_in:0.4 ());
    ("torus12", Generators.torus 12 12);
    ("gnp60-weighted", Generators.gnp_connected ~rng ~weights 60 0.3);
  ]

let golden_packings =
  [
    ("gnp96", "bcfca32af06a9732a329aa09ef8c5c84");
    ("gnp144", "72a79b982ddf13a942a05a086c00b8de");
    ("planted96", "ce36f8dded3c485b1c858ec98105ef3a");
    ("planted144", "5cea8546b8a378b8b13641d36c888b85");
    ("torus12", "6c020604444829dab85c50b1332dbc5b");
    ("gnp60-weighted", "757ba3f2d0398d55b2a71b3d594c2e25");
  ]

let test_pinned_packings () =
  let got =
    List.map
      (fun (name, g) -> (name, packing_digest (Tree_packing.greedy g ~trees:96)))
      (pinned_graphs ())
  in
  Alcotest.(check (list (pair string string))) "greedy ~trees:96 digests" golden_packings got

let test_single_node () =
  (* m = 0: every tree is empty, and there are still [trees] of them *)
  let g = Graph.create ~n:1 [] in
  List.iter
    (fun trees ->
      let p = Tree_packing.greedy g ~trees in
      check_int "tree count" trees (Array.length p.Tree_packing.trees);
      check_bool "all empty" true (Array.for_all (( = ) []) p.Tree_packing.trees);
      check_int "no loads" 0 (Array.length p.Tree_packing.loads);
      check_bool "matches oracle" true (same_as_oracle g ~trees))
    [ 1; 2; 7; 96 ]

let test_parallel_pair () =
  (* n = 2 with three parallel edges of weights 3, 1, 2: each tree is
     one edge, the least relatively loaded one, so after 12 trees the
     loads are proportional to the weights *)
  let g = Graph.create ~n:2 [ (0, 1, 3); (0, 1, 1); (0, 1, 2) ] in
  let p = Tree_packing.greedy g ~trees:12 in
  check_bool "first tree is the lightest edge" true (p.Tree_packing.trees.(0) = [ 1 ]);
  check_bool "loads follow weights" true (p.Tree_packing.loads = [| 6; 2; 4 |]);
  List.iter
    (fun trees -> check_bool "matches oracle" true (same_as_oracle g ~trees))
    [ 1; 2; 3; 5; 12; 96 ]

let test_weight_bound () =
  (* relative loads are compared as loads(a)·w(b) with loads ≤ trees, so
     weights up to max_int / trees are exact and one more is refused *)
  List.iter
    (fun trees ->
      let bound = max_int / trees in
      let g w = Graph.create ~n:3 [ (0, 1, w); (1, 2, 1); (0, 2, bound / 3) ] in
      check_bool "bound weight packs" true (same_as_oracle (g bound) ~trees);
      check_bool "bound + 1 raises" true
        (try
           ignore (Tree_packing.greedy (g (bound + 1)) ~trees);
           false
         with Invalid_argument _ -> true))
    [ 2; 7; 96 ]

(* ---- Distinct trees ---------------------------------------------------- *)

let sorted ids = List.sort Int.compare ids

(* [distinct]'s contract on one packing: slots number the distinct trees
   in first-occurrence order, each representative is the first
   occurrence itself, it has the same edge set as every tree it stands
   for, and no two representatives share an edge set *)
let distinct_contract (p : Tree_packing.t) =
  let slot, reps = Tree_packing.distinct p in
  let trees = p.Tree_packing.trees in
  let next = ref 0 and ok = ref (Array.length slot = Array.length trees) in
  Array.iteri
    (fun i s ->
      if s = !next then begin
        ok := !ok && reps.(s) == trees.(i);
        incr next
      end
      else ok := !ok && s < !next;
      ok := !ok && sorted reps.(s) = sorted trees.(i))
    slot;
  let keys = Array.to_list (Array.map sorted reps) in
  !ok
  && !next = Array.length reps
  && List.length (List.sort_uniq compare keys) = Array.length reps

let test_distinct_contract () =
  List.iter
    (fun (name, g) ->
      check_bool (name ^ " distinct contract") true
        (distinct_contract (Tree_packing.greedy g ~trees:12)))
    (small_connected_graphs ())

let test_distinct_counts () =
  (* a path of 8-cliques repeats trees heavily; a torus repeats none *)
  let cliques = Tree_packing.greedy (Generators.path_of_cliques ~clique:8 ~length:32) ~trees:96 in
  let torus = Tree_packing.greedy (Generators.torus 18 18) ~trees:72 in
  check_bool "cliques contract" true (distinct_contract cliques);
  check_bool "torus contract" true (distinct_contract torus);
  let count p = Array.length (snd (Tree_packing.distinct p)) in
  check_int "cliques8x32: 10 distinct of 96" 10 (count cliques);
  check_bool "cliques8x32 repeats" true (count cliques < 96);
  check_int "torus18: all 72 distinct" 72 (count torus);
  (* the hash reads every id: the 72 torus keys never share a hash, and
     neither do two keys that differ only in the last id of a packing
     whose bitmap runs to ~50 words *)
  let hash p ids = Mincut_util.Bitset.hash (Tree_packing.key p ids) in
  let hashes = Array.to_list (Array.map (hash torus) torus.Tree_packing.trees) in
  check_int "torus keys hash apart" 72 (List.length (List.sort_uniq compare hashes));
  let dense = Tree_packing.greedy (Generators.gnp_connected ~rng:(Rng.create 1) 144 0.3) ~trees:1 in
  let m = Array.length dense.Tree_packing.loads in
  check_bool "last id changes the hash" true (hash dense [ 0; m - 2 ] <> hash dense [ 0; m - 1 ])

(* qcheck generator: a connected weighted multigraph on 1..max_n nodes (a
   random spanning tree plus extra edges that may repeat an endpoint
   pair) with unit, narrow or wide weights, and 1..96 trees. *)
let arbitrary_packing_input ?(max_n = 24) () =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n = int_range 1 max_n in
    let* extra = int_range 0 (3 * n) in
    let* wmax = oneofl [ 1; 4; 1000 ] in
    let* trees = int_range 1 96 in
    return
      (let rng = Rng.create seed in
       let w () = 1 + Rng.int rng wmax in
       let tree = List.init (n - 1) (fun v -> (Rng.int rng (v + 1), v + 1, w ())) in
       let chords =
         if n < 2 then []
         else
           List.init extra (fun _ ->
               let u = Rng.int rng n in
               let v = (u + 1 + Rng.int rng (n - 1)) mod n in
               (min u v, max u v, w ()))
       in
       (Graph.create ~n (tree @ chords), trees)))

let qcheck_tests =
  [
    qtest ~count:50 "packing load invariant" (arbitrary_connected ()) (fun g ->
        Tree_packing.load_invariant g (Tree_packing.greedy g ~trees:4));
    qtest ~count:40 "some tree 1-respects some min cut within 4λ log n trees"
      (arbitrary_connected ~max_n:12 ())
      (fun g ->
        let sw = Mincut_graph.Stoer_wagner.run g in
        let lambda = sw.Mincut_graph.Stoer_wagner.value in
        let trees = max 8 (4 * lambda * 4) in
        let p = Tree_packing.greedy g ~trees in
        (* the test checks the *algorithmic* property we rely on: the min
           over trees of the best 1-respecting cut equals λ *)
        let best = ref max_int in
        Array.iter
          (fun ids ->
            let tree = Tree.of_edge_ids g ~root:0 ids in
            let r = Mincut_core.One_respect_seq.run g tree in
            best := min !best r.Mincut_core.One_respect_seq.best_value)
          p.Tree_packing.trees;
        !best = lambda);
    qtest ~count:150 "greedy = per-tree-sort oracle (trees, order, loads)"
      (arbitrary_packing_input ())
      (fun (g, trees) -> same_as_oracle g ~trees);
  ]

let distinct_tests =
  [
    tc "packing: distinct keeps first occurrences and edge sets" test_distinct_contract;
    tc "packing: distinct counts on a clique path and a torus" test_distinct_counts;
    qtest ~count:150 "distinct contract on random packings"
      (arbitrary_packing_input ())
      (fun (g, trees) -> distinct_contract (Tree_packing.greedy g ~trees));
  ]

let suite =
  [
    tc "packing: load invariant on families" test_load_invariant_families;
    tc "packing: first tree spans" test_first_tree_is_mst;
    tc "packing: deterministic" test_deterministic;
    tc "packing: ring loads balance" test_loads_spread;
    tc "packing: crossings" test_crossings;
    tc "packing: finds 1-respecting tree on planted cuts" test_one_respecting_found_on_known_cuts;
    tc "packing: bridges always 1-respected" test_bridge_always_one_respected;
    tc "packing: recommended trees bounds" test_recommended_trees_bounds;
    tc "packing: theory bound shape" test_theory_trees_growth;
    tc "packing: input validation" test_rejects_bad_input;
    tc "packing: first tree = real distributed MST" test_first_tree_matches_distributed_mst;
    tc "packing: pinned 96-tree digests" test_pinned_packings;
    tc "packing: single node packs empty trees" test_single_node;
    tc "packing: parallel edges on two nodes" test_parallel_pair;
    tc "packing: weight bound max_int / trees" test_weight_bound;
  ]
  @ qcheck_tests @ distinct_tests
