open Test_helpers
module One_respect = Mincut_core.One_respect
module One_respect_seq = Mincut_core.One_respect_seq
module Params = Mincut_core.Params
module Exact = Mincut_core.Exact
module Cost = Mincut_congest.Cost

let trees_of g =
  (* a few structurally different spanning trees of g *)
  let bfs = Tree.bfs_tree g ~root:0 in
  let kruskal = Tree.of_edge_ids g ~root:0 (Mincut_graph.Mst_seq.kruskal g) in
  let last_root = Tree.bfs_tree g ~root:(Graph.n g - 1) in
  [ ("bfs", bfs); ("mst", kruskal); ("bfs-from-last", last_root) ]

let test_seq_matches_naive () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (tname, tree) ->
          let r = One_respect_seq.run g tree in
          let naive = One_respect_seq.naive_cuts g tree in
          check_bool (Printf.sprintf "%s/%s cuts" name tname) true (r.One_respect_seq.cuts = naive))
        (trees_of g))
    (small_connected_graphs ())

let test_seq_root_cut_zero () =
  List.iter
    (fun (name, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      let r = One_respect_seq.run g tree in
      check_int (name ^ " C(root↓)=0") 0 r.One_respect_seq.cuts.(0))
    (small_connected_graphs ())

let test_seq_best_is_min () =
  List.iter
    (fun (name, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      let r = One_respect_seq.run g tree in
      let min_nonroot = ref max_int in
      Array.iteri
        (fun v c -> if v <> 0 then min_nonroot := min !min_nonroot c)
        r.One_respect_seq.cuts;
      check_int (name ^ " best") !min_nonroot r.One_respect_seq.best_value)
    (small_connected_graphs ())

let test_seq_side_consistent () =
  List.iter
    (fun (name, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      let r = One_respect_seq.run g tree in
      let side = One_respect_seq.side_of tree r.One_respect_seq.best_node in
      check_int (name ^ " side value") r.One_respect_seq.best_value
        (Graph.cut_of_bitset g side))
    (small_connected_graphs ())

let test_seq_karger_identity () =
  (* δ↓ − 2ρ↓ decomposition is internally consistent *)
  List.iter
    (fun (name, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      let r = One_respect_seq.run g tree in
      (* at the root: δ↓ = 2W and ρ↓ = W *)
      let w = Graph.total_weight g in
      check_int (name ^ " δ↓(root)=2W") (2 * w) r.One_respect_seq.delta_down.(0);
      check_int (name ^ " ρ↓(root)=W") w r.One_respect_seq.rho_down.(0);
      (* ρ sums to W *)
      check_int (name ^ " Σρ=W") w (Array.fold_left ( + ) 0 r.One_respect_seq.rho))
    (small_connected_graphs ())

let test_distributed_matches_seq () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (tname, tree) ->
          let seq = One_respect_seq.run g tree in
          let dist = One_respect.run g tree in
          check_bool
            (Printf.sprintf "%s/%s dist cuts = seq cuts" name tname)
            true
            (dist.One_respect.cuts = seq.One_respect_seq.cuts);
          check_int (name ^ " best value") seq.One_respect_seq.best_value
            dist.One_respect.best_value)
        (trees_of g))
    (small_connected_graphs ())

let test_lca_by_fragments_matches_oracle () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (tname, tree) ->
          let results = One_respect.lca_by_fragments g tree in
          Array.iteri
            (fun i (z, case, items) ->
              let e = Graph.edge g i in
              check_int
                (Printf.sprintf "%s/%s edge %d lca (case %d)" name tname i case)
                (naive_lca tree e.Graph.u e.Graph.v)
                z;
              check_bool "items non-negative" true (items >= 0))
            results)
        (trees_of g))
    (small_connected_graphs ())

let test_lca_cases_all_exercised () =
  (* a deep grid: its BFS tree splits into several fragments, so edges
     land in all three LCA cases *)
  let g = Generators.grid 16 16 in
  let tree = Tree.bfs_tree g ~root:0 in
  let results = One_respect.lca_by_fragments g tree in
  let count c = Array.fold_left (fun a (_, c', _) -> if c' = c then a + 1 else a) 0 results in
  check_bool "case1 seen" true (count 1 > 0);
  check_bool "case2 or case3 seen" true (count 2 + count 3 > 0)

let test_stats_sqrt_bounds () =
  let rng = Mincut_util.Rng.create 23 in
  List.iter
    (fun n ->
      let g = Generators.gnp_connected ~rng n (8.0 *. log (float_of_int n) /. float_of_int n) in
      let tree = Tree.bfs_tree g ~root:0 in
      let r = One_respect.run g tree in
      let s = r.One_respect.stats in
      let sqrt_n = int_of_float (ceil (sqrt (float_of_int n))) in
      check_bool
        (Printf.sprintf "n=%d fragments %d <= sqrt + 1" n s.One_respect.fragment_count)
        true
        (s.One_respect.fragment_count <= sqrt_n + 1);
      check_bool "fragment height" true (s.One_respect.max_fragment_height <= sqrt_n);
      check_bool
        (Printf.sprintf "merging %d < fragments" s.One_respect.merging_count)
        true
        (s.One_respect.merging_count <= s.One_respect.fragment_count);
      check_bool "tf_prime O(sqrt n)" true
        (s.One_respect.tf_prime_size <= (2 * sqrt_n) + 2))
    [ 64; 100; 196 ]

let has_prefix prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

let test_cost_has_all_steps () =
  let g = Generators.grid 6 6 in
  let tree = Tree.bfs_tree g ~root:0 in
  let r = One_respect.run g tree in
  (* the span tree exposes the paper's five numbered phases at top level *)
  let spans = r.One_respect.cost.Cost.spans in
  check_int "five phase spans" 5 (List.length spans);
  List.iteri
    (fun i (s : Cost.span) ->
      let want = Printf.sprintf "Step %d:" (i + 1) in
      check_bool (want ^ " label") true (has_prefix want s.Cost.label);
      check_bool (want ^ " has children") true (s.Cost.children <> []);
      check_bool (want ^ " provenance named") true
        (List.exists
           (String.equal (Cost.provenance_name s.Cost.provenance))
           [ "executed"; "scheduled"; "charged" ]))
    spans;
  check_int "phase rounds sum to total" r.One_respect.cost.Cost.rounds
    (List.fold_left (fun acc (s : Cost.span) -> acc + s.Cost.rounds) 0 spans);
  (* the flat view still carries every pre-refactor leaf label *)
  let labels = List.map fst (Cost.breakdown r.One_respect.cost) in
  List.iter
    (fun prefix ->
      check_bool (prefix ^ " present") true (List.exists (has_prefix prefix) labels))
    [ "bfs-tree"; "step1"; "step2"; "step3"; "step4"; "step5"; "finish" ];
  check_bool "rounds positive" true (r.One_respect.cost.Cost.rounds > 0)

let test_fast_params_same_answer () =
  List.iter
    (fun (name, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      let a = One_respect.run ~params:Params.default g tree in
      let b = One_respect.run ~params:Params.fast g tree in
      check_bool (name ^ " fast = real answers") true
        (a.One_respect.cuts = b.One_respect.cuts))
    (small_connected_graphs ())

let test_rounds_scale_sublinearly () =
  (* the measured rounds must grow far slower than n on a low-diameter
     family: ratio rounds/n should drop as n quadruples *)
  let rng = Mincut_util.Rng.create 5 in
  let rounds n =
    let g = Generators.gnp_connected ~rng n (8.0 *. log (float_of_int n) /. float_of_int n) in
    let tree = Tree.bfs_tree g ~root:0 in
    (One_respect.run ~params:Params.fast g tree).One_respect.cost.Cost.rounds
  in
  let r64 = rounds 64 and r1024 = rounds 1024 in
  let ratio = float_of_int r1024 /. float_of_int r64 in
  check_bool
    (Printf.sprintf "rounds(1024)/rounds(64) = %.1f < 8 (vs 16 for linear)" ratio)
    true (ratio < 8.0)

let test_params_formulas () =
  check_int "log* 2" 1 (Params.log_star 2);
  check_int "log* 16" 3 (Params.log_star 16);
  check_int "log* 65536" 4 (Params.log_star 65536);
  check_bool "kp monotone in n" true
    (Params.kp_mst_rounds Params.default ~n:1024 ~diameter:10
    > Params.kp_mst_rounds Params.default ~n:256 ~diameter:10);
  check_bool "kp linear in D" true
    (Params.kp_mst_rounds Params.default ~n:256 ~diameter:100
     - Params.kp_mst_rounds Params.default ~n:256 ~diameter:0
    = 100);
  check_int "sqrt target" 32 (Params.sqrt_target ~n:1024)

let test_lca_cases_partition_edges () =
  List.iter
    (fun (name, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      let rs = One_respect.lca_by_fragments g tree in
      check_int (name ^ " one case per edge") (Graph.m g) (Array.length rs);
      Array.iter
        (fun (_, case, _) ->
          check_bool (name ^ " case in 1..3") true (case >= 1 && case <= 3))
        rs)
    (small_connected_graphs ())

let test_target_override_changes_structure () =
  let g = Generators.grid 8 8 in
  let tree = Tree.bfs_tree g ~root:0 in
  let small = One_respect.run ~params:Params.fast ~target:2 g tree in
  let large = One_respect.run ~params:Params.fast ~target:64 g tree in
  check_bool "more fragments at small target" true
    (small.One_respect.stats.One_respect.fragment_count
    > large.One_respect.stats.One_respect.fragment_count);
  check_bool "same cuts regardless" true
    (small.One_respect.cuts = large.One_respect.cuts)

let test_soak_larger_instances () =
  (* a heavier differential pass at sizes where the fragment machinery is
     non-trivial: distributed knowledge = sequential reference, fragment
     LCA = oracle, on 10 mixed instances up to n = 150 *)
  let rng = Mincut_util.Rng.create 20140715 in
  let instances =
    [
      Generators.grid 10 12;
      Generators.torus 11 11;
      Generators.path_of_cliques ~clique:6 ~length:20;
      Generators.spider ~legs:10 ~leg_length:12;
      Generators.gnp_connected ~rng 150 0.05;
      Generators.gnp_connected ~rng ~weights:{ Generators.wmin = 1; wmax = 9 } 120 0.07;
      Generators.random_regular ~rng 120 4;
      Generators.planted_cut ~rng ~n:140 ~cut_edges:4 ~p_in:0.2 ();
      Generators.random_tree ~rng 150;
      Generators.hypercube 7;
    ]
  in
  List.iteri
    (fun i g ->
      let tree = Tree.bfs_tree g ~root:(Graph.n g / 3) in
      let seq = One_respect_seq.run g tree in
      let dist = One_respect.run ~params:Params.default g tree in
      check_bool (Printf.sprintf "soak %d cuts agree" i) true
        (dist.One_respect.cuts = seq.One_respect_seq.cuts);
      Array.iteri
        (fun j (z, _, _) ->
          let e = Graph.edge g j in
          if naive_lca tree e.Graph.u e.Graph.v <> z then
            Alcotest.failf "soak %d: lca mismatch on edge %d" i j)
        (One_respect.lca_by_fragments g tree))
    instances

(* ---- Pinned per-tree sweep ----------------------------------------- *)

(* The per-tree Theorem 2.1 sweep may be made cheaper, but never
   different: every engine program must send the same messages in the
   same rounds.  These digests were recorded before the sweep's
   backbone was shared across trees and its inner loops stopped
   allocating; they cover the answer, the side, the winning tree, the
   whole span tree (every leaf's rounds, provenance and engine audit,
   via [Cost.to_json]) and every stats field.  Regenerate them only
   for a change that is meant to alter what the algorithm executes or
   charges. *)

let stats_fields (s : One_respect.stats) =
  [
    s.One_respect.n; s.bfs_height; s.fragment_count; s.max_fragment_height;
    s.merging_count; s.tf_prime_size; s.lca_case1; s.lca_case2; s.lca_case3;
    s.max_lca_exchange; s.max_child_frag_load; s.max_ancestor_items;
    s.max_f_items; s.case2_lca_count;
  ]

let ints xs = String.concat "," (List.map string_of_int xs)

let exact_digest (r : Exact.result) =
  String.concat "|"
    [
      string_of_int r.Exact.value;
      ints (Mincut_util.Bitset.to_list r.Exact.side);
      string_of_int r.Exact.best_tree;
      string_of_int r.Exact.trees_used;
      Mincut_util.Json.to_string (Cost.to_json r.Exact.cost);
      ints (stats_fields r.Exact.stats);
    ]
  |> Digest.string |> Digest.to_hex

let golden_graphs () =
  let rng = Rng.create 20140715 in
  let weights = { Generators.wmin = 1; wmax = 9 } in
  [
    ("gnp40", Generators.gnp_connected ~rng 40 0.3);
    ("gnp30-weighted", Generators.gnp_connected ~rng ~weights 30 0.3);
    ("planted40", Generators.planted_cut ~rng ~n:40 ~cut_edges:3 ~p_in:0.3 ());
    ("torus6", Generators.torus 6 6);
    ("torus5x7", Generators.torus 5 7);
    ("cliques4x6", Generators.path_of_cliques ~clique:4 ~length:6);
    ("grid8", Generators.grid 8 8);
    ("path2", Generators.path 2);
    ("ring5-weighted", Generators.ring ~weights ~rng 5);
    ("complete4", Generators.complete 4);
    ("star5", Graph.create ~n:5 [ (0, 1, 2); (0, 2, 1); (0, 3, 3); (0, 4, 1) ]);
    ("disconnected6", Graph.create ~n:6 [ (0, 1, 1); (1, 2, 1); (3, 4, 1); (4, 5, 2) ]);
  ]

let golden_exact =
  [
    ("gnp40/default", "870aee53aadb0b8dc38991ec3406cf33");
    ("gnp40/fast", "de2856e84670801100e337ccd37142b8");
    ("gnp30-weighted/default", "c0837567de0457dadcd33306b3141633");
    ("gnp30-weighted/fast", "513cdef24b22a8ea6e85f915ae59c2b7");
    ("planted40/default", "830f3edcc75c1eb05426afc3c3eea7bc");
    ("planted40/fast", "d35380023381a25791a51f2f7b294e49");
    ("torus6/default", "b5a49a2f9414cb09ab74a4cc9419bd3a");
    ("torus6/fast", "4128007a5dba31e1f840251e63641740");
    ("torus5x7/default", "608e895409075d60914e550da39182e6");
    ("torus5x7/fast", "4b99a36c0a788837c0e96c2528409920");
    ("cliques4x6/default", "7e350a6a348e6dc07761050e7b7de97c");
    ("cliques4x6/fast", "8a9cf9207ab7bff37528193e8d6424fe");
    ("grid8/default", "58ddb450447b7318e483d34fbd82f781");
    ("grid8/fast", "6c61f79fe1fba3e7dfb5519992c3cdad");
    ("path2/default", "277f1cac2f706e7590225fad89581adc");
    ("path2/fast", "b150aa6ade6b915e179dcb11c893f882");
    ("ring5-weighted/default", "e1cc2073f469bc6e4ecb2457632a368d");
    ("ring5-weighted/fast", "9f6d4aa26b5eea2249f937bdf2be39f4");
    ("complete4/default", "25a9685039d36f971405411a8582408b");
    ("complete4/fast", "caf0418d9b628eee2579f6f079eda26b");
    ("star5/default", "d3c7e9763a643cb67bf3bb724c2917fb");
    ("star5/fast", "ba625c179edf01addbf5d43ecb0432f0");
    ("disconnected6/default", "953fdb76ea8101b1ba114ea98473a1a6");
    ("disconnected6/fast", "953fdb76ea8101b1ba114ea98473a1a6");
    ("torus12/default", "c82ba985c64da6d7505a238845a782bf");
    ("cliques8x16/default", "b0b5826e419b015e7251a158fff2d88f");
  ]

(* solve-deep's smallest inputs: fragments ⌈√n⌉ high, so Step 2's
   pipelines carry long id streams.  Default mode only, since fast mode
   schedules those steps instead of running them. *)
let long_pipeline_graphs () =
  [
    ("torus12", Generators.torus 12 12);
    ("cliques8x16", Generators.path_of_cliques ~clique:8 ~length:16);
  ]

let test_exact_pinned () =
  let got =
    List.concat_map
      (fun (name, g) ->
        List.map
          (fun (mode, params) ->
            (name ^ "/" ^ mode, exact_digest (Exact.run ~params g)))
          [ ("default", Params.default); ("fast", Params.fast) ])
      (golden_graphs ())
    @ List.map
        (fun (name, g) -> (name ^ "/default", exact_digest (Exact.run ~params:Params.default g)))
        (long_pipeline_graphs ())
  in
  Alcotest.(check (list (pair string string))) "Exact.run digests" golden_exact got

(* The golden graphs are small enough that ⌈√n⌉-high fragments rarely
   leave an LCA outside both endpoints' fragments; a low target forces
   merging nodes and case-2 LCAs into the pinned runs. *)
let respect_digest (r : One_respect.result) =
  String.concat "|"
    [
      ints (Array.to_list r.One_respect.cuts);
      string_of_int r.One_respect.best_value;
      string_of_int r.One_respect.best_node;
      Mincut_util.Json.to_string (Cost.to_json r.One_respect.cost);
      ints (stats_fields r.One_respect.stats);
    ]
  |> Digest.string |> Digest.to_hex

let test_one_respect_pinned_low_target () =
  let got =
    List.concat_map
      (fun (name, g) ->
        let tree = ref_bfs_tree g ~root:0 in
        List.map
          (fun (mode, params) ->
            let r = One_respect.run ~params ~target:3 g tree in
            check_bool (name ^ " has case-2 LCAs") true (r.One_respect.stats.One_respect.lca_case2 > 0);
            (name ^ "/" ^ mode, respect_digest r))
          [ ("default", Params.default); ("fast", Params.fast) ])
      (List.filter
         (fun (name, _) -> List.mem name [ "planted40"; "torus6"; "grid8" ])
         (golden_graphs ()))
  in
  Alcotest.(check (list (pair string string)))
    "One_respect.run ~target:3 digests"
    [
      ("planted40/default", "f26d7b813f94aa4881e299aa9cfa35d2");
      ("planted40/fast", "25d3f67a7cb07369325879e028571c6e");
      ("torus6/default", "2c6b7fcafa4c374d5ab6106bbc15bd9e");
      ("torus6/fast", "0a462b3a01e1c3720e449ea85060d93d");
      ("grid8/default", "506be23153cd572c049f0abb823ad6ae");
      ("grid8/fast", "62b3973f6f9bd65e508a395535e19492");
    ]
    got

let lca_digest rs =
  Array.to_list rs
  |> List.map (fun (z, case, items) -> Printf.sprintf "%d:%d:%d" z case items)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let test_lca_pinned () =
  let grid = Generators.grid 16 16 in
  let gnp = Generators.gnp_connected ~rng:(Rng.create 31) 120 0.05 in
  let got =
    [
      ("grid16 bfs", lca_digest (One_respect.lca_by_fragments grid (ref_bfs_tree grid ~root:0)));
      ( "grid16 bfs target3",
        lca_digest (One_respect.lca_by_fragments ~target:3 grid (ref_bfs_tree grid ~root:0)) );
      ( "gnp120 mst",
        lca_digest
          (One_respect.lca_by_fragments gnp
             (Tree.of_edge_ids gnp ~root:0 (Mincut_graph.Mst_seq.kruskal gnp))) );
    ]
  in
  Alcotest.(check (list (pair string string)))
    "lca_by_fragments digests"
    [
      ("grid16 bfs", "15b9b73bf0c34b31fc48131bb376417d");
      ("grid16 bfs target3", "2e8602d1dd8bcb47e466eda9aa79fb43");
      ("gnp120 mst", "28d0f7a232fdffa565ab300b11c59075");
    ]
    got

let test_backbone_root_checked () =
  let g = Generators.grid 4 4 in
  let tree = Tree.bfs_tree g ~root:0 in
  let backbone = One_respect.backbone ~params:Params.fast g ~root:5 in
  Alcotest.check_raises "rooted elsewhere"
    (Invalid_argument "One_respect.run: backbone rooted elsewhere") (fun () ->
      ignore (One_respect.run ~params:Params.fast ~backbone g tree));
  let other = One_respect.backbone ~params:Params.fast (Generators.grid 5 5) ~root:0 in
  Alcotest.check_raises "another graph"
    (Invalid_argument "One_respect.run: backbone of another graph") (fun () ->
      ignore (One_respect.run ~params:Params.fast ~backbone:other g tree));
  let real = One_respect.backbone ~params:Params.default g ~root:0 in
  Alcotest.check_raises "real backbone in fast run"
    (Invalid_argument "One_respect.run: backbone built under other params") (fun () ->
      ignore (One_respect.run ~params:Params.fast ~backbone:real g tree));
  let fast = One_respect.backbone ~params:Params.fast g ~root:0 in
  Alcotest.check_raises "fast backbone in real run"
    (Invalid_argument "One_respect.run: backbone built under other params") (fun () ->
      ignore (One_respect.run ~params:Params.default ~backbone:fast g tree))

(* ---- Step 5 and Step 2b against the code they replaced ---------------- *)

module Fragments = Mincut_mst.Fragments

(* Step 5 as the paper states it, by climbing parent pointers: case 1
   climbs from y to the first ancestor of x; case 3 climbs each endpoint
   through its own fragment looking for an ancestor of the other
   fragment's root; case 2 meets the two T'F chains.  T'F is rebuilt
   here from its definition, independently of [One_respect]. *)
let climbing_lca ~target g tree =
  let fr = Fragments.partition tree ~target in
  let frag_of = fr.Fragments.frag_of and dif = fr.Fragments.depth_in_frag in
  let roots = fr.Fragments.roots and parent = tree.Tree.parent in
  let holds_fragment c = Array.exists (fun r -> Tree.is_ancestor tree c r) roots in
  let in_tfp v =
    roots.(frag_of.(v)) = v
    || Array.fold_left
         (fun a c -> if holds_fragment c then a + 1 else a)
         0 tree.Tree.children.(v)
       >= 2
  in
  let rec lta v = if in_tfp v then v else lta parent.(v) in
  let tf_parent v = if parent.(v) = -1 then -1 else lta parent.(v) in
  let rec tf_depth v = if tf_parent v = -1 then 0 else 1 + tf_depth (tf_parent v) in
  let lca_of_edge x y =
    if frag_of.(x) = frag_of.(y) then
      let rec climb v = if Tree.is_ancestor tree v x then v else climb parent.(v) in
      (climb y, 1, 1 + max dif.(x) dif.(y))
    else
      let rec find_in_fragment v other_root =
        if Tree.is_ancestor tree v other_root then Some v
        else if dif.(v) = 0 then None
        else find_in_fragment parent.(v) other_root
      in
      match find_in_fragment x roots.(frag_of.(y)) with
      | Some z -> (z, 3, 0)
      | None -> (
          match find_in_fragment y roots.(frag_of.(x)) with
          | Some z -> (z, 3, 0)
          | None ->
              let a = lta x and b = lta y in
              let rec meet a b =
                if a = b then a
                else if tf_depth a >= tf_depth b then meet (tf_parent a) b
                else meet a (tf_parent b)
              in
              (meet a b, 2, 2 + max (tf_depth a) (tf_depth b)))
  in
  Array.map (fun (e : Graph.edge) -> lca_of_edge e.u e.v) (Graph.edges g)

(* random-order Kruskal from a random root *)
let random_spanning_tree rng g =
  let ids = Array.init (Graph.m g) Fun.id in
  Rng.shuffle rng ids;
  let uf = Mincut_graph.Union_find.create (Graph.n g) in
  let picked =
    Array.fold_left
      (fun acc id ->
        let u, v = Graph.endpoints g id in
        if Mincut_graph.Union_find.union uf u v then id :: acc else acc)
      [] ids
  in
  Tree.of_edge_ids g ~root:(Rng.int rng (Graph.n g)) picked

let prop_step5_matches_climbing =
  qtest ~count:100 "dist: Step 5 = climbing three-case LCA on random trees, targets 1-4"
    QCheck2.Gen.(
      triple (arbitrary_connected ~max_n:40 ()) (int_range 0 1_000_000) (int_range 1 4))
    (fun (g, seed, target) ->
      let tree = random_spanning_tree (Rng.create seed) g in
      let want = climbing_lca ~target g tree in
      let s = (One_respect.run ~params:Params.fast ~target g tree).One_respect.stats in
      let count c = Array.fold_left (fun a (_, c', _) -> if c' = c then a + 1 else a) 0 want in
      let case2_lcas =
        Array.to_list want
        |> List.filter_map (fun (z, c, _) -> if c = 2 then Some z else None)
        |> List.sort_uniq Int.compare
      in
      One_respect.lca_by_fragments ~target g tree = want
      && s.One_respect.lca_case1 = count 1
      && s.lca_case2 = count 2
      && s.lca_case3 = count 3
      && s.max_lca_exchange = Array.fold_left (fun a (_, _, i) -> max a i) 0 want
      && s.case2_lca_count = List.length case2_lcas)

(* Step 2b as first written: smallest id first, with a sorted set of the
   ids still to forward. *)
module ISet = Mincut_util.Intset

let smallest_first_downcast ~cfg g (links : Mincut_congest.Primitives.forest) fr =
  let module Network = Mincut_congest.Network in
  let down = links.Mincut_congest.Primitives.children in
  let prog : (ISet.t, int) Network.program =
    {
      initial = (fun v -> if down.(v) = [||] then ISet.empty else ISet.add v ISet.empty);
      step =
        (fun ~node ~round:_ ~inbox unsent ->
          match Array.to_list down.(node) with
          | [] -> (unsent, [])
          | kids -> (
              let unsent = List.fold_left (fun a (_, x) -> ISet.add x a) unsent inbox in
              match (unsent :> int list) with
              | [] -> (unsent, [])
              | item :: _ -> (ISet.remove_min unsent, List.map (fun c -> (c, item)) kids)));
      halted = (fun _ -> false);
    }
  in
  let bound = (2 * Fragments.max_height fr) + 3 in
  snd (Network.run_bounded ~result:keep_state ~cfg ~words:(fun _ -> 1) ~rounds:(max 1 bound) g prog)

let test_downcast_matches_smallest_first () =
  let cfg = Params.default.Params.congest in
  List.iter
    (fun (name, g) ->
      let packing = Mincut_treepack.Tree_packing.greedy g ~trees:6 in
      Array.iteri
        (fun i ids ->
          let tree = Tree.of_edge_ids g ~root:0 ids in
          List.iter
            (fun target ->
              let label = Printf.sprintf "%s tree %d target %d" name i target in
              let fr = Fragments.partition tree ~target in
              let links = One_respect.frag_links tree fr in
              let audit = One_respect.frag_ancestor_downcast ~cfg g tree links fr in
              check_bool (label ^ " sends") true (audit.Mincut_congest.Network.total_messages > 0);
              check_bool (label ^ " audit") true
                (audit = smallest_first_downcast ~cfg g links fr);
              (* the chain-list program it replaced, checked after the
                 run instead of as each id arrives *)
              check_bool (label ^ " chain-list audit") true
                (audit = ref_frag_ancestor_downcast ~cfg g tree links fr))
            [ Params.sqrt_target ~n:(Graph.n g); 3; 1 ])
        packing.Mincut_treepack.Tree_packing.trees)
    [
      ("torus12", Generators.torus 12 12);
      ("gnp96", Generators.gnp_connected ~rng:(Rng.create 1) 96 0.3);
      ("cliques8x16", Generators.path_of_cliques ~clique:8 ~length:16);
    ]

(* a forest that skips a level: one node re-hung to its grandparent
   (over an added edge, so every send stays on a channel) hears an id
   two levels up, and the arrival check must refuse it *)
let test_downcast_refuses_skipped_level () =
  let cfg = Params.default.Params.congest in
  let g = Generators.torus 12 12 in
  let tree = Tree.bfs_tree g ~root:0 in
  let fr = Fragments.partition tree ~target:(Params.sqrt_target ~n:(Graph.n g)) in
  let links = One_respect.frag_links tree fr in
  let dif = fr.Fragments.depth_in_frag in
  let c =
    match List.find_opt (fun v -> dif.(v) >= 2) (List.init (Graph.n g) Fun.id) with
    | Some c -> c
    | None -> Alcotest.fail "no fragment two levels deep"
  in
  let parent = Array.copy links.Mincut_congest.Primitives.parent in
  let gp = parent.(parent.(c)) in
  parent.(c) <- gp;
  let rehung = Mincut_congest.Primitives.forest_of_parents parent in
  let g' =
    Graph.create ~n:(Graph.n g)
      ((c, gp, 1) :: Graph.fold_edges (fun acc e -> (e.Graph.u, e.Graph.v, e.Graph.w) :: acc) [] g)
  in
  (* the same forest over the widened graph still passes *)
  ignore (One_respect.frag_ancestor_downcast ~cfg g' tree links fr);
  check_bool "skipped level raises Assert_failure" true
    (match One_respect.frag_ancestor_downcast ~cfg g' tree rehung fr with
    | _ -> false
    | exception Assert_failure _ -> true)

(* ---- Exact.run against a loop over every packed tree ------------------- *)

(* [Exact.run] as written before it solved each distinct packing tree
   once: One_respect.run on every packed tree, in index order, with the
   same leader election, packing charge and <=-tie-break.  Connected
   graphs only (a disconnected graph never reaches the packing). *)
let exact_every_tree ~params g =
  let module Tree_packing = Mincut_treepack.Tree_packing in
  let n = Graph.n g in
  let trees =
    Tree_packing.recommended_trees ~n ~lambda_hint:(Exact.min_weighted_degree g)
  in
  let packing = Tree_packing.greedy g ~trees in
  let backbone = One_respect.backbone ~params g ~root:0 in
  let diameter = Tree.height (fst backbone) in
  let per_tree_rounds = Params.kp_mst_rounds params ~n ~diameter in
  let c_leader, c_pack =
    if params.Params.run_real_primitives then begin
      let _, c =
        Mincut_congest.Primitives.flood_max ~cfg:params.Params.congest g
          ~values:(Array.init n Fun.id)
      in
      let audit = match c.Cost.spans with [ s ] -> s.Cost.audit | _ -> None in
      let d = Mincut_mst.Boruvka_dist.run ~cfg:params.Params.congest g in
      ( Cost.executed ?audit "leader election (real flood-max)" c.Cost.rounds,
        Cost.( ++ )
          (Cost.group "tree 1: real distributed Boruvka MST"
             d.Mincut_mst.Boruvka_dist.cost)
          (Tree_packing.distributed_cost ~n ~diameter ~trees:(trees - 1)
             ~per_tree_rounds) )
    end
    else
      ( Cost.scheduled "leader election" ((2 * diameter) + 2),
        Tree_packing.distributed_cost ~n ~diameter ~trees ~per_tree_rounds )
  in
  let sweep = ref Cost.zero and best = ref None in
  Array.iteri
    (fun i ids ->
      let r = One_respect.run ~params ~backbone g (Tree.of_edge_ids g ~root:0 ids) in
      sweep :=
        Cost.( ++ ) !sweep
          (Cost.group
             (Printf.sprintf "tree %d: 1-respecting cut (Theorem 2.1)" (i + 1))
             r.One_respect.cost);
      match !best with
      | Some (_, b) when b.One_respect.best_value <= r.One_respect.best_value -> ()
      | _ -> best := Some (i, r))
    packing.Tree_packing.trees;
  let i, r = Option.get !best in
  let tree = Tree.of_edge_ids g ~root:0 packing.Tree_packing.trees.(i) in
  {
    Exact.value = r.One_respect.best_value;
    side = One_respect_seq.side_of tree r.One_respect.best_node;
    best_tree = i;
    trees_used = trees;
    cost =
      Cost.( ++ ) (Cost.( ++ ) c_leader c_pack)
        (Cost.group "per-tree 1-respecting cuts" !sweep);
    stats = r.One_respect.stats;
  }

let same_exact (a : Exact.result) (b : Exact.result) =
  a.Exact.value = b.Exact.value
  && Mincut_util.Bitset.equal a.Exact.side b.Exact.side
  && a.Exact.best_tree = b.Exact.best_tree
  && a.Exact.trees_used = b.Exact.trees_used
  && Mincut_util.Json.to_string (Cost.to_json a.Exact.cost)
     = Mincut_util.Json.to_string (Cost.to_json b.Exact.cost)
  && a.Exact.stats = b.Exact.stats

let test_exact_every_tree () =
  (* clique paths repeat packing trees heavily; the torus repeats none *)
  List.iter
    (fun (name, g, params) ->
      check_bool (name ^ ": Exact.run = every-tree loop") true
        (same_exact (Exact.run ~params g) (exact_every_tree ~params g)))
    [
      ("cliques8x16", Generators.path_of_cliques ~clique:8 ~length:16, Params.default);
      ("cliques8x32", Generators.path_of_cliques ~clique:8 ~length:32, Params.fast);
      ("torus12", Generators.torus 12 12, Params.fast);
    ]

(* small weighted graphs: few spanning trees, so packings repeat often *)
let arbitrary_small_weighted =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n = int_range 2 9 in
    let* p = oneofl [ 0.3; 0.6; 1.0 ] in
    let* wmax = int_range 1 6 in
    return
      (Generators.gnp_connected ~rng:(Rng.create seed)
         ~weights:{ Generators.wmin = 1; wmax }
         n p))

let prop_exact_every_tree =
  qtest ~count:60 "dist: Exact.run = every-tree loop on small weighted graphs"
    QCheck2.Gen.(pair arbitrary_small_weighted bool)
    (fun (g, real) ->
      let params = if real then Params.default else Params.fast in
      same_exact (Exact.run ~params g) (exact_every_tree ~params g))

let qcheck_tests =
  [
    qtest ~count:60 "dist = seq on random graphs and trees" (arbitrary_connected ())
      (fun g ->
        let tree = Tree.bfs_tree g ~root:(Graph.n g / 2) in
        let seq = One_respect_seq.run g tree in
        let dist = One_respect.run ~params:Params.fast g tree in
        dist.One_respect.cuts = seq.One_respect_seq.cuts);
    qtest ~count:60 "paper lca = oracle lca" (arbitrary_connected ())
      (fun g ->
        let tree = Tree.bfs_tree g ~root:0 in
        let rs = One_respect.lca_by_fragments g tree in
        let ok = ref true in
        Array.iteri
          (fun i (z, _, _) ->
            let e = Graph.edge g i in
            if naive_lca tree e.Graph.u e.Graph.v <> z then ok := false)
          rs;
        !ok);
    qtest ~count:60 "shared backbone = per-run backbone, both modes"
      QCheck2.Gen.(pair (arbitrary_connected ()) bool)
      (fun (g, real) ->
        let params = if real then Params.default else Params.fast in
        let tree = Tree.of_edge_ids g ~root:0 (Mincut_graph.Mst_seq.kruskal g) in
        let backbone = One_respect.backbone ~params g ~root:0 in
        One_respect.run ~params ~backbone g tree = One_respect.run ~params g tree);
    qtest ~count:60 "1-respecting min >= true min cut" (arbitrary_connected ())
      (fun g ->
        let tree = Tree.bfs_tree g ~root:0 in
        let r = One_respect_seq.run g tree in
        let lambda = (Mincut_graph.Stoer_wagner.run g).Mincut_graph.Stoer_wagner.value in
        r.One_respect_seq.best_value >= lambda);
  ]

(* A tree's run takes its per-node temporaries from the domain's
   scratch stack.  Run inside a frame that already holds arrays, on a
   torus over the 256-word line, it must leave them alone and answer as
   a run outside any frame does, in both modes; and the same call
   repeated must answer the same. *)
let test_run_inside_held_scratch () =
  let module Scratch = Mincut_util.Scratch in
  let g = Generators.torus 18 18 in
  let n = Graph.n g in
  let ids =
    (Mincut_treepack.Tree_packing.greedy g ~trees:1).Mincut_treepack.Tree_packing.trees.(0)
  in
  let tree = Tree.of_edge_ids g ~root:0 ids in
  List.iter
    (fun (mode, params) ->
      let plain : One_respect.result = One_respect.run ~params g tree in
      let again = One_respect.run ~params g tree in
      Scratch.frame (fun sc ->
          let held = Scratch.filled sc (2 * n) 7 in
          let nested = One_respect.run ~params g tree in
          check_bool (mode ^ ": tree rebuilt in the frame") true
            ((Tree.of_edge_ids g ~root:0 ids).Tree.parent = tree.Tree.parent);
          check_bool (mode ^ ": held array untouched") true
            (Array.for_all (( = ) 7) (Array.sub held 0 (2 * n)));
          List.iter
            (fun (label, (r : One_respect.result)) ->
              let name = mode ^ ": " ^ label in
              check_bool (name ^ " cuts") true (r.cuts = plain.cuts);
              check_int (name ^ " best") plain.best_node r.best_node;
              check_bool (name ^ " cost") true (Cost.equal r.cost plain.cost))
            [ ("repeated", again); ("nested", nested) ]))
    [ ("full", Params.default); ("fast", Params.fast) ]

let suite =
  [
    tc "seq: matches naive cut evaluation" test_seq_matches_naive;
    tc "seq: root cut is zero" test_seq_root_cut_zero;
    tc "seq: best is the min" test_seq_best_is_min;
    tc "seq: side consistent" test_seq_side_consistent;
    tc "seq: Karger identity sanity" test_seq_karger_identity;
    tc "dist: matches sequential reference" test_distributed_matches_seq;
    tc "dist: fragment LCA matches oracle" test_lca_by_fragments_matches_oracle;
    tc "dist: all LCA cases exercised" test_lca_cases_all_exercised;
    tc "dist: O(sqrt n) structure bounds" test_stats_sqrt_bounds;
    tc "dist: cost breakdown covers all steps" test_cost_has_all_steps;
    tc "dist: fast params give same answers" test_fast_params_same_answer;
    tc_slow "dist: rounds scale sublinearly" test_rounds_scale_sublinearly;
    tc "params: formulas" test_params_formulas;
    tc "dist: lca cases partition the edges" test_lca_cases_partition_edges;
    tc "dist: target override" test_target_override_changes_structure;
    tc_slow "dist: soak on larger mixed instances" test_soak_larger_instances;
    tc "dist: Exact.run pinned on the golden graphs" test_exact_pinned;
    tc "dist: One_respect.run pinned at a low target" test_one_respect_pinned_low_target;
    tc "dist: backbone must match the tree's root, graph and mode" test_backbone_root_checked;
    tc "dist: fragment LCA pinned (lca, case, items)" test_lca_pinned;
    prop_step5_matches_climbing;
    tc "dist: Step 2b downcast audit = smallest-id-first schedule"
      test_downcast_matches_smallest_first;
  ]
  @ qcheck_tests
  @ [
      tc "dist: Exact.run = every-tree loop on clique paths and a torus"
        test_exact_every_tree;
      prop_exact_every_tree;
      tc "dist: run inside a held scratch frame = plain run" test_run_inside_held_scratch;
      tc "dist: Step 2b refuses an id that skips a level" test_downcast_refuses_skipped_level;
    ]
