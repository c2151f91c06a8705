module Graph = Mincut_graph.Graph
module Mst_seq = Mincut_graph.Mst_seq
module Union_find = Mincut_graph.Union_find
module Bfs = Mincut_graph.Bfs
module Cost = Mincut_congest.Cost
module Bitset = Mincut_util.Bitset

type t = { trees : int list array; loads : int array }

(* Compare relative loads u1/w1 vs u2/w2 of edge ids [a] and [b] exactly
   by cross-multiplying, then weight, then id: a strict total order.
   [greedy] bounds every weight by max_int / trees, so no product
   overflows and the order stays transitive. *)
let load_order loads w a b =
  let la = loads.(a) * w.(b) and lb = loads.(b) * w.(a) in
  match Int.compare la lb with
  | 0 -> ( match Int.compare w.(a) w.(b) with 0 -> Int.compare a b | c -> c)
  | c -> c

(* One edge order, kept sorted by [load_order] across trees.  Tree i is
   the Kruskal prefix of the order up to its (n-1)-th union.  Only those
   n-1 edges gain load, so they are lifted out (the rejected edges of the
   prefix and the untouched tail close up, still sorted), re-sorted among
   themselves and merged back from the end. *)
let greedy g ~trees =
  if trees < 1 then invalid_arg "Tree_packing.greedy: need at least one tree";
  if not (Bfs.is_connected g) then invalid_arg "Tree_packing.greedy: disconnected graph";
  let edges = Graph.edges g in
  let n = Graph.n g and m = Graph.m g in
  let w = Array.map (fun (e : Graph.edge) -> e.w) edges in
  if Array.exists (fun x -> x > max_int / trees) w then
    invalid_arg
      (Printf.sprintf "Tree_packing.greedy: edge weight above max_int / %d" trees);
  let loads = Array.make m 0 in
  let order = Array.init m Fun.id in
  Array.sort (load_order loads w) order;
  let picked = Array.make (max 0 (n - 1)) 0 in
  let k = Array.length picked in
  let uf = Union_find.create n in
  let out = Array.make trees [] in
  for i = 0 to trees - 1 do
    Union_find.reset uf;
    let chosen = ref 0 and pos = ref 0 in
    while !chosen < k do
      let id = order.(!pos) in
      let e = edges.(id) in
      if Union_find.union uf e.u e.v then begin
        picked.(!chosen) <- id;
        incr chosen
      end
      else order.(!pos - !chosen) <- id;
      incr pos
    done;
    out.(i) <- Array.to_list picked;
    Array.iter (fun id -> loads.(id) <- loads.(id) + 1) picked;
    if i < trees - 1 then begin
      Array.blit order !pos order (!pos - k) (m - !pos);
      Array.sort (load_order loads w) picked;
      let rest = ref (m - k - 1) and d = ref (m - 1) in
      for j = k - 1 downto 0 do
        let id = picked.(j) in
        while !rest >= 0 && load_order loads w order.(!rest) id > 0 do
          order.(!d) <- order.(!rest);
          decr rest;
          decr d
        done;
        order.(!d) <- id;
        decr d
      done
    end
  done;
  { trees = out; loads }

(* A tree is keyed by its edge-id set, which is all [Tree.of_edge_ids]
   reads: parents are unique and children are filled in node order.  The
   set is a bitmap over the m edge ids (the ids in increasing order, one
   bit each), so keying is O(n + m/62) per tree with no sort.  Keys are
   filed by a hash of every word, with bitmap equality on collision. *)
let key t ids =
  let set = Bitset.create (Array.length t.loads) in
  List.iter (Bitset.add set) ids;
  set

let distinct t =
  let by_hash = Hashtbl.create (Array.length t.trees) in
  let reps = ref [] in
  let slot =
    Array.map
      (fun ids ->
        let k = key t ids in
        let h = Bitset.hash k in
        match
          List.find_opt (fun (k', _) -> Bitset.equal k k') (Hashtbl.find_all by_hash h)
        with
        | Some (_, s) -> s
        | None ->
            let s = Hashtbl.length by_hash in
            Hashtbl.add by_hash h (k, s);
            reps := ids :: !reps;
            s)
      t.trees
  in
  (slot, Array.of_list (List.rev !reps))

let recommended_trees ~n ~lambda_hint =
  let log2n = Mincut_util.Intmath.ceil_log2 (max 2 n) in
  max 8 (min 96 (2 * max 1 lambda_hint * log2n))

let theory_trees ~n ~lambda =
  let l = float_of_int lambda and ln = log (float_of_int (max 2 n)) /. log 2.0 in
  (l ** 7.0) *. (ln ** 3.0)

let crossings g ids ~in_cut =
  List.fold_left
    (fun acc id ->
      let u, v = Graph.endpoints g id in
      if in_cut u <> in_cut v then acc + 1 else acc)
    0 ids

let first_one_respecting g t ~in_cut =
  let k = Array.length t.trees in
  let rec go i =
    if i >= k then None
    else if crossings g t.trees.(i) ~in_cut = 1 then Some i
    else go (i + 1)
  in
  go 0

let load_invariant g t =
  let n = Graph.n g in
  let total = Array.fold_left ( + ) 0 t.loads in
  total = Array.length t.trees * (n - 1)
  && Array.for_all (fun ids -> Mst_seq.is_spanning_tree g ids) t.trees

let distributed_cost ~n:_ ~diameter:_ ~trees ~per_tree_rounds =
  Cost.charged
    (Printf.sprintf "tree packing: %d MSTs at the Kutten-Peleg bound" trees)
    (trees * per_tree_rounds)

(* One greedy pass: repeatedly extract a spanning tree from the residual
   capacities, visiting edges in the per-pass order given by [rank].
   Preferring high residual capacity keeps heavy bundles alive. *)
let disjoint_pass g rank =
  let capacity = Array.map (fun (e : Graph.edge) -> e.w) (Graph.edges g) in
  let residual_spanning () =
    let uf = Union_find.create (Graph.n g) in
    let es =
      Array.of_list
        (List.filter
           (fun (e : Graph.edge) -> capacity.(e.id) > 0)
           (Array.to_list (Graph.edges g)))
    in
    Array.sort
      (fun (a : Graph.edge) (b : Graph.edge) ->
        match Int.compare capacity.(b.id) capacity.(a.id) with
        | 0 -> Int.compare rank.(a.id) rank.(b.id)
        | c -> c)
      es;
    let acc = ref [] in
    Array.iter
      (fun (e : Graph.edge) ->
        if Union_find.union uf e.u e.v then acc := e.id :: !acc)
      es;
    if List.length !acc = Graph.n g - 1 then Some (List.rev !acc) else None
  in
  let rec go acc =
    match residual_spanning () with
    | None -> List.rev acc
    | Some tree ->
        List.iter (fun id -> capacity.(id) <- capacity.(id) - 1) tree;
        go (tree :: acc)
  in
  go []

(* The single-order greedy can waste connectivity (a star tree isolates
   its hub), so restart it over several deterministic pseudo-random edge
   orders and keep the best packing.  Still a certified lower bound:
   every returned tree is genuinely edge-disjoint and spanning. *)
let disjoint_greedy g =
  if Graph.n g <= 1 then []
  else begin
    let m = Graph.m g in
    let rng = Mincut_util.Rng.create 0x7A33 in
    let best = ref [] in
    for restart = 0 to 19 do
      let rank = Array.init m (fun i -> i) in
      if restart > 0 then Mincut_util.Rng.shuffle rng rank;
      let trees = disjoint_pass g rank in
      if List.length trees > List.length !best then best := trees
    done;
    !best
  end

let disjoint_count g = List.length (disjoint_greedy g)
