module Graph = Mincut_graph.Graph
module Tree = Mincut_graph.Tree
module Bfs = Mincut_graph.Bfs
module Bitset = Mincut_util.Bitset
module Tree_packing = Mincut_treepack.Tree_packing
module Cost = Mincut_congest.Cost
module Pool = Mincut_parallel.Pool

type kind = One of int | Two of int * int

type result = {
  value : int;
  side : Bitset.t;
  kind : kind;
  cost : Cost.t;
}

(* All-pairs subtree-to-subtree edge weights:
   cross.(v).(w) = E(v↓, w↓), including (twice) edges internal to both.
   Built by seeding the endpoint matrix and running one subtree-sum
   sweep per axis. *)
let cross_matrix g tree =
  let n = Graph.n g in
  let m = Array.make_matrix n n 0 in
  Graph.iter_edges
    (fun e ->
      m.(e.u).(e.v) <- m.(e.u).(e.v) + e.w;
      m.(e.v).(e.u) <- m.(e.v).(e.u) + e.w)
    g;
  (* axis 1: m.(v).(y) becomes the sum over x in v↓ *)
  for i = n - 1 downto 1 do
    let v = tree.Tree.preorder.(i) in
    let p = tree.Tree.parent.(v) in
    let row_v = m.(v) and row_p = m.(p) in
    for y = 0 to n - 1 do
      row_p.(y) <- row_p.(y) + row_v.(y)
    done
  done;
  (* axis 2: m.(v).(w) becomes the sum over y in w↓ *)
  for i = n - 1 downto 1 do
    let w = tree.Tree.preorder.(i) in
    let p = tree.Tree.parent.(w) in
    for v = 0 to n - 1 do
      m.(v).(p) <- m.(v).(p) + m.(v).(w)
    done
  done;
  m

let side_of_kind tree kind =
  let n = tree.Tree.graph_n in
  let side = Bitset.create n in
  (match kind with
  | One v -> List.iter (Bitset.add side) (Tree.subtree_members tree v)
  | Two (v, w) ->
      if Tree.is_ancestor tree v w then begin
        (* v↓ \ w↓ *)
        List.iter (Bitset.add side) (Tree.subtree_members tree v);
        List.iter (Bitset.remove side) (Tree.subtree_members tree w)
      end
      else begin
        List.iter (Bitset.add side) (Tree.subtree_members tree v);
        List.iter (Bitset.add side) (Tree.subtree_members tree w)
      end);
  side

let run ?(params = Params.default) g tree =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Two_respect.run: need n >= 2";
  let root = tree.Tree.root in
  let one = One_respect_seq.run g tree in
  let cuts = one.One_respect_seq.cuts in
  let delta_down = one.One_respect_seq.delta_down in
  let cross = cross_matrix g tree in
  let best_value = ref one.One_respect_seq.best_value in
  let best_kind = ref (One one.One_respect_seq.best_node) in
  for v = 0 to n - 1 do
    if v <> root then
      for w = v + 1 to n - 1 do
        if w <> root then begin
          let candidate =
            if Tree.is_ancestor tree v w then
              Some (cuts.(v) + cuts.(w) - (2 * (delta_down.(w) - cross.(w).(v))), v, w)
            else if Tree.is_ancestor tree w v then
              Some (cuts.(w) + cuts.(v) - (2 * (delta_down.(v) - cross.(v).(w))), w, v)
            else Some (cuts.(v) + cuts.(w) - (2 * cross.(v).(w)), v, w)
          in
          match candidate with
          | Some (c, a, b) when c < !best_value ->
              best_value := c;
              best_kind := Two (a, b)
          | _ -> ()
        end
      done
  done;
  let diameter = Tree.height (Tree.bfs_tree g ~root) in
  let log2n = Mincut_util.Intmath.ceil_log2 (max 2 n) in
  let cost =
    Cost.charged "2-respect sweep (charged at the Mukhopadhyay-Nanongkai bound)"
      (Params.kp_mst_rounds params ~n ~diameter * log2n)
  in
  { value = !best_value; side = side_of_kind tree !best_kind; kind = !best_kind; cost }

let min_cut ?(params = Params.default) ?(pool = Pool.sequential) ?trees g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Two_respect.min_cut: need n >= 2";
  if not (Bfs.is_connected g) then
    {
      value = 0;
      side = Bfs.component_of g 0;
      kind = One 0;
      cost = Cost.scheduled "bfs-tree (component detection)" n;
    }
  else begin
    let trees =
      match trees with
      | Some t -> t
      | None ->
          max 8 (2 * Mincut_util.Intmath.ceil_log2 (max 2 n))
    in
    let packing = Tree_packing.greedy g ~trees in
    let diameter = Tree.height (Tree.bfs_tree g ~root:0) in
    let c_pack =
      Tree_packing.distributed_cost ~n ~diameter ~trees
        ~per_tree_rounds:(Params.kp_mst_rounds params ~n ~diameter)
    in
    (* a sweep depends only on the tree's edge-id set: each distinct
       tree is swept once over the pool, then every packed tree is
       charged in index order, which reproduces the sequential
       tie-break exactly *)
    let slot, reps = Tree_packing.distinct packing in
    let runs =
      Pool.map pool (fun ids -> run ~params g (Tree.of_edge_ids g ~root:0 ids)) reps
    in
    let _, sweep, best =
      Array.fold_left
        (fun (i, sweep, best) s ->
          let r = runs.(s) in
          let sweep =
            Cost.( ++ ) sweep
              (Cost.group (Printf.sprintf "tree %d: 2-respect sweep" (i + 1)) r.cost)
          in
          match best with
          | Some b when b.value <= r.value -> (i + 1, sweep, best)
          | _ -> (i + 1, sweep, Some r))
        (0, Cost.zero, None) slot
    in
    (* fixed-label parent: per-phase consumers must not scale with the
       tree budget *)
    let cost =
      Cost.( ++ ) c_pack (Cost.group "per-tree 2-respect sweeps" sweep)
    in
    match best with
    | None -> assert false
    | Some b -> { b with cost }
  end
