module Graph = Mincut_graph.Graph
module Tree = Mincut_graph.Tree
module Bitset = Mincut_util.Bitset

type result = {
  cuts : int array;
  best_value : int;
  best_node : int;
  rho : int array;
  delta_down : int array;
  rho_down : int array;
}

let run g tree =
  let n = Graph.n g in
  if n < 2 then invalid_arg "One_respect_seq.run: need n >= 2";
  let delta = Array.init n (Graph.weighted_degree g) in
  let rho = Array.make n 0 in
  (Mincut_util.Scratch.frame @@ fun sc ->
   let lca = Tree.Lca.build sc tree in
   Graph.iter_edges
     (fun e ->
       let z = Tree.Lca.query lca e.u e.v in
       rho.(z) <- rho.(z) + e.w)
     g);
  let delta_down = Tree.accumulate_up tree delta in
  let rho_down = Tree.accumulate_up tree rho in
  let cuts = Array.init n (fun v -> delta_down.(v) - (2 * rho_down.(v))) in
  let best = ref (-1) in
  for v = 0 to n - 1 do
    if v <> tree.Tree.root && (!best = -1 || cuts.(v) < cuts.(!best)) then best := v
  done;
  { cuts; best_value = cuts.(!best); best_node = !best; rho; delta_down; rho_down }

let side_of tree v =
  let side = Bitset.create tree.Tree.graph_n in
  List.iter (Bitset.add side) (Tree.subtree_members tree v);
  side

let naive_cuts g tree =
  let n = Graph.n g in
  Array.init n (fun v -> Graph.cut_value g ~in_cut:(fun u -> Tree.is_ancestor tree v u))
