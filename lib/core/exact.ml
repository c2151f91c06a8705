module Graph = Mincut_graph.Graph
module Tree = Mincut_graph.Tree
module Bfs = Mincut_graph.Bfs
module Bitset = Mincut_util.Bitset
module Tree_packing = Mincut_treepack.Tree_packing
module Cost = Mincut_congest.Cost
module Pool = Mincut_parallel.Pool

type result = {
  value : int;
  side : Bitset.t;
  best_tree : int;
  trees_used : int;
  cost : Cost.t;
  stats : One_respect.stats;
}

let min_weighted_degree g =
  let best = ref max_int in
  for v = 0 to Graph.n g - 1 do
    best := Int.min !best (Graph.weighted_degree g v)
  done;
  !best

let run ?(params = Params.default) ?(pool = Pool.sequential) ?lambda_upper
    ?trees g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Exact.run: need n >= 2";
  if not (Bfs.is_connected g) then
    (* a disconnected network has min cut 0; every node detects it from
       the BFS-tree construction timing out in its component *)
    {
      value = 0;
      side = Bfs.component_of g 0;
      best_tree = 0;
      trees_used = 0;
      cost = Cost.scheduled "bfs-tree (component detection)" (Graph.n g);
      stats =
        {
          One_respect.n;
          bfs_height = 0;
          fragment_count = 0;
          max_fragment_height = 0;
          merging_count = 0;
          tf_prime_size = 0;
          lca_case1 = 0;
          lca_case2 = 0;
          lca_case3 = 0;
          max_lca_exchange = 0;
          max_child_frag_load = 0;
          max_ancestor_items = 0;
          max_f_items = 0;
          case2_lca_count = 0;
        };
    }
  else begin
    let trees =
      match trees with
      | Some t -> t
      | None ->
          (* the packing budget scales with the best available upper
             bound on λ: the weighted-degree bound always holds, and a
             sampling-ladder estimate (Sample_estimate) tightens it
             when the degrees are loose *)
          let hint =
            match lambda_upper with
            | Some u -> Int.min (min_weighted_degree g) (Int.max 1 u)
            | None -> min_weighted_degree g
          in
          Tree_packing.recommended_trees ~n ~lambda_hint:hint
    in
    let packing = Tree_packing.greedy g ~trees in
    (* the global BFS backbone depends only on g and root 0: build it
       once, read the diameter bound off it, and hand it to every tree *)
    let backbone = One_respect.backbone ~params g ~root:0 in
    let diameter = Tree.height (fst backbone) in
    (* the network first agrees on a leader (all ids flood; the paper
       assumes unique ids); real in full-fidelity mode, where the
       backbone is the engine's BFS tree from node 0 and sets the
       flood's round bound *)
    let c_leader =
      if params.Params.run_real_primitives then begin
        let ids = Array.init n (fun v -> v) in
        let learned, c =
          Mincut_congest.Primitives.flood_max ~cfg:params.Params.congest
            ~tree:(fst backbone) g ~values:ids
        in
        assert (Array.for_all (fun x -> x = n - 1) learned);
        (* a single executed leaf (keeping the flood-max audit) so the
           flat breakdown reads the same as the measured primitive *)
        Cost.executed ?audit:(Cost.leaf_audit c) "leader election (real flood-max)"
          c.Cost.rounds
      end
      else Cost.scheduled "leader election" ((2 * diameter) + 2)
    in
    let c_pack =
      if params.Params.run_real_primitives then begin
        (* the packing's first tree is the plain MST: run it for real on
           the engine (message-level Borůvka) and check it matches the
           packing's tree 1; the remaining load-reweighted MSTs are
           charged at the Kutten–Peleg bound as the paper prescribes *)
        let d = Mincut_mst.Boruvka_dist.run ~cfg:params.Params.congest g in
        assert (
          List.equal Int.equal
            (List.sort Int.compare d.Mincut_mst.Boruvka_dist.edge_ids)
            (List.sort Int.compare packing.Tree_packing.trees.(0)));
        Cost.( ++ )
          (Cost.group "tree 1: real distributed Boruvka MST"
             d.Mincut_mst.Boruvka_dist.cost)
          (Tree_packing.distributed_cost ~n ~diameter ~trees:(trees - 1)
             ~per_tree_rounds:(Params.kp_mst_rounds params ~n ~diameter))
      end
      else
        Tree_packing.distributed_cost ~n ~diameter ~trees
          ~per_tree_rounds:(Params.kp_mst_rounds params ~n ~diameter)
    in
    (* a run depends only on the tree's edge-id set (the graph and the
       backbone are immutable, each job builds its own tree and per-run
       state), so the sweep solves each distinct tree once *)
    let tree_idx, r, sweep =
      Tree_packing.sweep ~pool ~label:"1-respecting cut (Theorem 2.1)"
        ~run:(fun ids -> One_respect.run ~params ~backbone g (Tree.of_edge_ids g ~root:0 ids))
        ~cost:(fun r -> r.One_respect.cost)
        ~value:(fun r -> r.One_respect.best_value)
        packing
    in
    (* one fixed-label parent over the per-tree spans: consumers that
       count rounds per top-level phase (serve metrics, bench profiles)
       must not grow with the packing budget *)
    let cost =
      Cost.sum [ c_leader; c_pack; Cost.group "per-tree 1-respecting cuts" sweep ]
    in
    let tree = Tree.of_edge_ids g ~root:0 packing.Tree_packing.trees.(tree_idx) in
    {
      value = r.One_respect.best_value;
      side = One_respect_seq.side_of tree r.One_respect.best_node;
      best_tree = tree_idx;
      trees_used = trees;
      cost;
      stats = r.One_respect.stats;
    }
  end
