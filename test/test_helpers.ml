(* Shared helpers for the test suites. *)

module Rng = Mincut_util.Rng
module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Bfs = Mincut_graph.Bfs
module Tree = Mincut_graph.Tree

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let tc name f = Alcotest.test_case name `Quick f

let tc_slow name f = Alcotest.test_case name `Slow f

(* Reference LCA by walking parent pointers: the oracle for both
   [Tree.Lca] and the distributed Step 5. *)
let naive_lca t a b =
  let rec up acc v = if v = -1 then acc else up (v :: acc) t.Tree.parent.(v) in
  let anc_a = up [] a in
  let rec go b = if List.mem b anc_a then b else go t.Tree.parent.(b) in
  go b

(* A deterministic bag of small connected test graphs covering the edge
   cases (trees, cycles, cliques, multigraph-ish planted cuts, weighted). *)
let small_connected_graphs () =
  let rng = Rng.create 0xC0FFEE in
  let weights = { Generators.wmin = 1; wmax = 5 } in
  [
    ("path4", Generators.path 4);
    ("path2", Generators.path 2);
    ("ring5", Generators.ring 5);
    ("ring3-weighted", Generators.ring ~weights ~rng 3);
    ("complete5", Generators.complete 5);
    ("complete6-weighted", Generators.complete ~weights ~rng 6);
    ("grid3x4", Generators.grid 3 4);
    ("torus3x3", Generators.torus 3 3);
    ("hypercube3", Generators.hypercube 3);
    ("wheel7", Generators.wheel 7);
    ("barbell4", Generators.barbell 4);
    ("dumbbell3-2", Generators.dumbbell 3 2);
    ("caterpillar3x2", Generators.caterpillar 3 2);
    ("random-tree12", Generators.random_tree ~rng 12);
    ("gnp12", Generators.gnp_connected ~rng 12 0.5);
    ("gnp14-weighted", Generators.gnp_connected ~rng ~weights 14 0.5);
    ( "planted10",
      Generators.planted_cut ~rng ~n:10 ~cut_edges:2 ~p_in:0.9 () );
    ("regular8-3", Generators.random_regular ~rng 8 3);
  ]

(* qcheck generator: connected random graph with 2..max_n nodes, drawn
   from structurally diverse families (trees, dense gnp, weighted gnp,
   rings with chords, small planted cuts). *)
let arbitrary_connected ?(max_n = 14) () =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n = int_range 2 max_n in
    let* style = int_range 0 4 in
    return
      (let rng = Rng.create seed in
       match style with
       | 0 -> Generators.random_tree ~rng n
       | 1 -> Generators.gnp_connected ~rng n 0.6
       | 2 ->
           Generators.gnp_connected ~rng
             ~weights:{ Generators.wmin = 1; wmax = 4 }
             n 0.6
       | 3 ->
           if n < 3 then Generators.path n
           else
             (* ring plus a few random chords *)
             let base = Generators.ring n in
             let chords =
               List.init (max 1 (n / 4)) (fun _ ->
                   let u = Rng.int rng n and v = Rng.int rng n in
                   if u = v then None else Some (min u v, max u v, 1 + Rng.int rng 3))
               |> List.filter_map Fun.id
             in
             Graph.create ~n
               (Graph.fold_edges
                  (fun acc e -> (e.Graph.u, e.Graph.v, e.Graph.w) :: acc)
                  chords base)
       | _ ->
           if n < 4 then Generators.path n
           else Generators.planted_cut ~rng ~n ~cut_edges:(1 + Rng.int rng 3) ~p_in:0.7 ()))

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)
