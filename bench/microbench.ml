(* Bechamel wall-clock microbenchmarks: one Test.make per table/figure,
   timing the computational kernel that regenerates it.  The simulated
   round counts (the paper's metric) come from the experiment tables;
   these benches track the simulator's own cost so regressions in the
   implementation are visible. *)

open Bechamel
open Toolkit
module Tree = Mincut_graph.Tree
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Tree_packing = Mincut_treepack.Tree_packing
module One_respect = Mincut_core.One_respect
module Exact = Mincut_core.Exact
module Approx = Mincut_core.Approx
module Ghaffari_kuhn = Mincut_core.Ghaffari_kuhn
module Su = Mincut_core.Su
module Params = Mincut_core.Params
module Rng = Mincut_util.Rng

let fast = Params.fast

let tests () =
  let g256 = Workloads.gnp_supercritical ~seed:1 256 in
  let g_deep = Workloads.cliques_path ~length:16 in
  let g_planted = Workloads.planted ~seed:1 ~n:128 ~lambda:4 in
  let g_dense = Mincut_graph.Generators.gnp_connected ~rng:(Rng.create 1) 144 0.3 in
  let tree256 = Tree.bfs_tree g256 ~root:0 in
  Test.make_grouped ~name:"mincut"
    [
      Test.make ~name:"t1-ground-truth:stoer-wagner-128"
        (Staged.stage (fun () -> ignore (Stoer_wagner.run g_planted)));
      Test.make ~name:"t2-theorem21:one-respect-256"
        (Staged.stage (fun () -> ignore (One_respect.run ~params:fast g256 tree256)));
      (* one tree of a dense solve, every within-fragment program on the
         engine: the per-tree cost the exact sweep pays 96 times *)
      Test.make ~name:"t2-theorem21:one-respect-gnp144"
        (Staged.stage
           (let tree =
              Tree.of_edge_ids g_dense ~root:0
                (Tree_packing.greedy g_dense ~trees:1).Tree_packing.trees.(0)
            in
            let backbone = One_respect.backbone g_dense ~root:0 in
            fun () -> ignore (One_respect.run ~backbone g_dense tree)));
      (* the engine's per-message cost: Step 2b's pipelined downcast on
         that tree's fragment forest (most node-rounds idle, sends to a
         few children), and a BFS flood that addresses every neighbour *)
      Test.make ~name:"engine:frag-downcast-gnp144"
        (Staged.stage
           (let tree =
              Tree.of_edge_ids g_dense ~root:0
                (Tree_packing.greedy g_dense ~trees:1).Tree_packing.trees.(0)
            in
            let fr =
              Mincut_mst.Fragments.partition tree
                ~target:(Params.sqrt_target ~n:(Mincut_graph.Graph.n g_dense))
            in
            let links = One_respect.frag_links tree fr in
            let cfg = Params.default.Params.congest in
            fun () -> ignore (One_respect.frag_ancestor_downcast ~cfg g_dense tree links fr)));
      Test.make ~name:"engine:bfs-flood-gnp144"
        (Staged.stage (fun () -> ignore (Mincut_congest.Primitives.bfs_tree g_dense ~root:0)));
      Test.make ~name:"t3-diameter:one-respect-cliques-path"
        (Staged.stage (fun () ->
             let tree = Tree.bfs_tree g_deep ~root:0 in
             ignore (One_respect.run ~params:fast g_deep tree)));
      Test.make ~name:"t4-lambda:exact-planted-128"
        (Staged.stage (fun () -> ignore (Exact.run ~params:fast ~trees:16 g_planted)));
      Test.make ~name:"f1-comparison:gk-256"
        (Staged.stage (fun () -> ignore (Ghaffari_kuhn.run ~params:fast ~epsilon:0.5 g256)));
      Test.make ~name:"f1-comparison:su-128"
        (Staged.stage (fun () ->
             ignore (Su.run ~params:fast ~rng:(Rng.create 7) ~epsilon:0.5 g_planted)));
      Test.make ~name:"f2-quality:approx-128"
        (Staged.stage (fun () ->
             ignore
               (Approx.run ~params:fast ~trees:8 ~rng:(Rng.create 5) ~epsilon:0.5 g_planted)));
      Test.make ~name:"f3-packing:greedy-16-trees-128"
        (Staged.stage (fun () -> ignore (Tree_packing.greedy g_planted ~trees:16)));
      Test.make ~name:"f3-packing:greedy-96-trees-gnp144"
        (Staged.stage (fun () -> ignore (Tree_packing.greedy g_dense ~trees:96)));
      (* keying alone, on a packing with no repeats and on one with many *)
      Test.make ~name:"f3-packing:distinct-72-trees-torus18"
        (Staged.stage
           (let p = Tree_packing.greedy (Mincut_graph.Generators.torus 18 18) ~trees:72 in
            fun () -> ignore (Tree_packing.distinct p)));
      Test.make ~name:"f3-packing:distinct-96-trees-cliques8x32"
        (Staged.stage
           (let p = Tree_packing.greedy (Workloads.cliques_path ~length:32) ~trees:96 in
            fun () -> ignore (Tree_packing.distinct p)));
      Test.make ~name:"f5-anatomy:fragment-partition-256"
        (Staged.stage (fun () ->
             ignore
               (Mincut_mst.Fragments.partition tree256
                  ~target:(Mincut_core.Params.sqrt_target ~n:256))));
      Test.make ~name:"t5-audit:boruvka-dist-128"
        (Staged.stage (fun () -> ignore (Mincut_mst.Boruvka_dist.run g_planted)));
      Test.make ~name:"a3-extension:two-respect-128"
        (Staged.stage (fun () ->
             let tree = Tree.bfs_tree g_planted ~root:0 in
             ignore (Mincut_core.Two_respect.run g_planted tree)));
      Test.make ~name:"a4-frontier:pritchard-grid-256"
        (Staged.stage
           (let g = Mincut_graph.Generators.grid 16 16 in
            fun () -> ignore (Mincut_core.Pritchard.run g)));
      Test.make ~name:"w0-zoo:gomory-hu-64"
        (Staged.stage
           (let g = Workloads.gnp_supercritical ~seed:3 64 in
            fun () -> ignore (Mincut_graph.Gomory_hu.build g)));
      Test.make ~name:"certificate-torus-256"
        (Staged.stage
           (let g = Mincut_graph.Generators.torus 16 16 in
            let s = Mincut_core.Api.min_cut ~params:fast g in
            fun () -> ignore (Mincut_core.Certificate.certify_summary g s)));
    ]

let run () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results =
    List.map (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]) instance raw)
      instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]) instances results in
  print_endline "### Bechamel microbenchmarks (monotonic clock, ns/run)";
  Hashtbl.iter
    (fun name tbl ->
      ignore name;
      Hashtbl.iter
        (fun test result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-45s %12.0f ns/run\n" test est
          | _ -> Printf.printf "%-45s (no estimate)\n" test)
        tbl)
    results;
  print_newline ()
