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
module Primitives = Mincut_congest.Primitives

let fast = Params.fast

let tests ~keep () =
  let g256 = Workloads.gnp_supercritical ~seed:1 256 in
  let g_deep = Workloads.cliques_path ~length:16 in
  let g_planted = Workloads.planted ~seed:1 ~n:128 ~lambda:4 in
  let g_dense = Mincut_graph.Generators.gnp_connected ~rng:(Rng.create 1) 144 0.3 in
  let g_torus18 = Mincut_graph.Generators.torus 18 18 in
  let tree256 = Tree.bfs_tree g256 ~root:0 in
  (* the first packed tree of the 18x18 torus and its fragment forest,
     shared by the engine rows *)
  let tree18 =
    Tree.of_edge_ids g_torus18 ~root:0
      (Tree_packing.greedy g_torus18 ~trees:1).Tree_packing.trees.(0)
  in
  let fr18 =
    Mincut_mst.Fragments.partition tree18
      ~target:(Params.sqrt_target ~n:(Mincut_graph.Graph.n g_torus18))
  in
  let links18 = One_respect.frag_links tree18 fr18 in
  let cfg = Params.default.Params.congest in
  List.filter keep
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
      (* the same at n = 324, over the 256-word line: every per-node
         array of the run is a major-heap block *)
      Test.make ~name:"t2-theorem21:one-respect-torus18"
        (Staged.stage
           (let tree =
              Tree.of_edge_ids g_torus18 ~root:0
                (Tree_packing.greedy g_torus18 ~trees:1).Tree_packing.trees.(0)
            in
            let backbone = One_respect.backbone g_torus18 ~root:0 in
            fun () -> ignore (One_respect.run ~backbone g_torus18 tree)));
      (* the same tree in fast mode: no engine programs, so Step 5's
         per-edge LCA loop dominates *)
      Test.make ~name:"t2-theorem21:one-respect-fast-gnp144"
        (Staged.stage
           (let tree =
              Tree.of_edge_ids g_dense ~root:0
                (Tree_packing.greedy g_dense ~trees:1).Tree_packing.trees.(0)
            in
            let backbone = One_respect.backbone ~params:fast g_dense ~root:0 in
            fun () -> ignore (One_respect.run ~params:fast ~backbone g_dense tree)));
      (* building a packed tree from its edge ids, once per distinct tree
         of a solve *)
      Test.make ~name:"graph:tree-of-edge-ids-torus18"
        (Staged.stage
           (let g = Mincut_graph.Generators.torus 18 18 in
            let ids = (Tree_packing.greedy g ~trees:1).Tree_packing.trees.(0) in
            fun () -> ignore (Tree.of_edge_ids g ~root:0 ids)));
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
      Test.make ~name:"engine:frag-downcast-torus18"
        (Staged.stage (fun () ->
             ignore (One_respect.frag_ancestor_downcast ~cfg g_torus18 tree18 links18 fr18)));
      (* Steps 3 and 2a on the same forest: most nodes wait idle on
         their children or hold no id to pass up *)
      Test.make ~name:"engine:convergecast-torus18"
        (Staged.stage
           (let values = Array.init (Mincut_graph.Graph.n g_torus18) (fun v -> v mod 7) in
            fun () ->
              ignore
                (Primitives.convergecast ~cfg ~words:(fun _ -> 2) ~combine:( + ) g_torus18
                   links18 values)));
      Test.make ~name:"engine:upcast-torus18"
        (Staged.stage
           (let n = Mincut_graph.Graph.n g_torus18 in
            let initial =
              Mincut_util.Scratch.frame (fun sc ->
                  let items = One_respect.child_fragment_items sc tree18 fr18 in
                  let off = items.One_respect.off in
                  Array.init n (fun v ->
                      Array.to_list (Array.sub items.One_respect.ids off.(v) (off.(v + 1) - off.(v)))))
            in
            (* as Step 2a bounds it: the tallest fragment plus the most
               ids one fragment carries *)
            let rounds =
              Mincut_mst.Fragments.max_height fr18
              + Array.fold_left
                  (fun acc ms ->
                    max acc (List.fold_left (fun a v -> a + List.length initial.(v)) 0 ms))
                  0 fr18.Mincut_mst.Fragments.members
              + 2
            in
            fun () ->
              ignore (Primitives.upcast ~cfg ~rounds g_torus18 links18 ~initial:(Array.get initial))));
      Test.make ~name:"engine:bfs-flood-gnp144"
        (Staged.stage (fun () -> ignore (Mincut_congest.Primitives.bfs_tree g_dense ~root:0)));
      (* one round to every neighbour, as Borůvka's Step A runs it each
         phase: the inboxes arrive in sender order *)
      Test.make ~name:"engine:exchange-gnp144"
        (Staged.stage
           (let values = Array.init (Mincut_graph.Graph.n g_dense) Fun.id in
            fun () ->
              ignore (Mincut_congest.Primitives.exchange ~words:(fun _ -> 1) g_dense values)));
      (* leader election as Exact.run runs it: the flood alone, bounded
         by the BFS backbone the caller already holds *)
      Test.make ~name:"engine:flood-max-gnp144"
        (Staged.stage
           (let tree, _ = Mincut_congest.Primitives.bfs_tree g_dense ~root:0 in
            let values = Array.init (Mincut_graph.Graph.n g_dense) Fun.id in
            fun () -> ignore (Mincut_congest.Primitives.flood_max ~tree g_dense ~values)));
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
      (* solve-deep's shape: unit weights, so no re-sort runs *)
      Test.make ~name:"f3-packing:greedy-96-trees-torus18"
        (Staged.stage
           (let g = Mincut_graph.Generators.torus 18 18 in
            fun () -> ignore (Tree_packing.greedy g ~trees:96)));
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

(* [only] keeps the rows whose name starts with one of its prefixes
   (every row when empty) *)
let run ?(only = []) () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let keep t =
    only = [] || List.exists (fun prefix -> String.starts_with ~prefix (Test.name t)) only
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"mincut" (tests ~keep ())) in
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
