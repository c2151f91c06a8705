(* Workload definitions shared by the experiments.  Each experiment of
   EXPERIMENTS.md names one of these families with its parameters. *)

module Rng = Mincut_util.Rng
module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Tree = Mincut_graph.Tree

(* Supercritical Erdős–Rényi: connected w.h.p., diameter O(log n) — the
   family for n-sweeps where D must stay small.  The certifier's
   scaling ladder uses the same family, so the definition lives there. *)
let gnp_supercritical ~seed n = Mincut_analysis.Scaling.supercritical ~seed n

(* Diameter-controlled family: λ = 2 stays fixed, D grows linearly. *)
let cliques_path ~length = Generators.path_of_cliques ~clique:8 ~length

(* λ-controlled family. *)
let planted ~seed ~n ~lambda =
  let rng = Rng.create seed in
  Generators.planted_cut ~rng ~n ~cut_edges:lambda ~p_in:0.7 ()

(* Planted family with shuffled edge ids: the deterministic packing's
   id-based tie-breaking must not be allowed to see the construction
   order, or the first MST trivially 1-respects the planted cut. *)
let shuffled_planted ~seed ~n ~lambda =
  let g = 
    let rng = Rng.create seed in
    Generators.planted_cut ~rng ~n ~cut_edges:lambda ~p_in:0.7 ()
  in
  let triples =
    Array.of_list (Graph.fold_edges (fun acc e -> (e.Graph.u, e.Graph.v, e.Graph.w) :: acc) [] g)
  in
  let rng = Rng.create (seed * 31 + 7) in
  Rng.shuffle rng triples;
  Graph.of_array ~n triples

let diameter_of g = Tree.height (Tree.bfs_tree g ~root:0)

let sqrt_n_plus_d g =
  let n = Graph.n g in
  let d = diameter_of g in
  ceil (sqrt (float_of_int n)) +. float_of_int d

(* The correctness suite for T1: every deterministic family with its
   known λ plus seeded random ones checked against Stoer–Wagner. *)
let t1_suite () =
  let rng = Rng.create 0xBEEF in
  [
    ("ring-32", Generators.ring 32);
    ("complete-16", Generators.complete 16);
    ("grid-8x8", Generators.grid 8 8);
    ("torus-6x6", Generators.torus 6 6);
    ("hypercube-6", Generators.hypercube 6);
    ("wheel-24", Generators.wheel 24);
    ("barbell-10", Generators.barbell 10);
    ("dumbbell-8-6", Generators.dumbbell 8 6);
    ("cliques-path-8x6", Generators.path_of_cliques ~clique:8 ~length:6);
    ("gnp-48", Generators.gnp_connected ~rng 48 0.2);
    ("gnp-64-weighted",
     Generators.gnp_connected ~rng ~weights:{ Generators.wmin = 1; wmax = 6 } 64 0.15);
    ("planted-64-3", Generators.planted_cut ~rng ~n:64 ~cut_edges:3 ~p_in:0.5 ());
    ("regular-40-4", Generators.random_regular ~rng 40 4);
  ]
