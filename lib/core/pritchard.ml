module Graph = Mincut_graph.Graph
module Tree = Mincut_graph.Tree
module Bfs = Mincut_graph.Bfs
module Small_cuts = Mincut_graph.Small_cuts
module Bitset = Mincut_util.Bitset
module Cost = Mincut_congest.Cost

type verdict =
  | Cut_found of { value : int; side : Bitset.t }
  | Lambda_at_least_3

type result = { verdict : verdict; cost : Cost.t }

let bridge_side g id =
  let without = Graph.sub_by_edges g ~keep:(fun e -> e.Graph.id <> id) in
  let u, _ = Graph.endpoints g id in
  Bfs.component_of without u

let run g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Pritchard.run: need n >= 2";
  if not (Bfs.is_connected g) then
    {
      verdict = Cut_found { value = 0; side = Bfs.component_of g 0 };
      cost = Cost.scheduled "connectivity check (BFS)" n;
    }
  else begin
    let diameter = Tree.height (Tree.bfs_tree g ~root:0) in
    (* cut edges: O(D) rounds [PT]; cut pairs: Õ(D) — charge D·log n *)
    let log2n = Mincut_util.Intmath.ceil_log2 (max 2 n) in
    let c_edges = Cost.charged "pritchard: cut edges (charged O(D))" (max 1 diameter) in
    match Small_cuts.bridges g with
    | id :: _ ->
        { verdict = Cut_found { value = 1; side = bridge_side g id }; cost = c_edges }
    | [] -> (
        let c_pairs =
          Cost.( ++ ) c_edges
            (Cost.charged "pritchard: cut pairs (charged O(D log n))"
               (max 1 (diameter * log2n)))
        in
        match Small_cuts.heavy_bridges g with
        | id :: _ ->
            { verdict = Cut_found { value = 2; side = bridge_side g id }; cost = c_pairs }
        | [] -> (
            match Small_cuts.cut_pairs g with
            | pair :: _ ->
                {
                  verdict = Cut_found { value = 2; side = Small_cuts.cut_pair_side g pair };
                  cost = c_pairs;
                }
            | [] -> { verdict = Lambda_at_least_3; cost = c_pairs }))
  end
