module Graph = Mincut_graph.Graph
module Bfs = Mincut_graph.Bfs
module Small_cuts = Mincut_graph.Small_cuts
module Bitset = Mincut_util.Bitset
module Cost = Mincut_congest.Cost

type verdict =
  | Cut_found of { value : int; side : Bitset.t }
  | Lambda_at_least_3

type result = { verdict : verdict; cost : Cost.t }

let run g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Pritchard.run: need n >= 2";
  if not (Bfs.is_connected g) then
    {
      verdict = Cut_found { value = 0; side = Bfs.component_of g 0 };
      cost = Cost.scheduled "connectivity check (BFS)" n;
    }
  else begin
    let diameter = Bfs.eccentricity g 0 in
    (* cut edges: O(D) rounds [PT]; cut pairs: Õ(D) — charge D·log n *)
    let log2n = Mincut_util.Intmath.ceil_log2 (max 2 n) in
    let c_edges = Cost.charged "pritchard: cut edges (charged O(D))" (max 1 diameter) in
    match Small_cuts.bridges g with
    | id :: _ ->
        let side = Small_cuts.side_without g [ id ] in
        { verdict = Cut_found { value = 1; side }; cost = c_edges }
    | [] -> (
        let c_pairs =
          Cost.( ++ ) c_edges
            (Cost.charged "pritchard: cut pairs (charged O(D log n))"
               (max 1 (diameter * log2n)))
        in
        match Small_cuts.heavy_bridges g with
        | id :: _ ->
            let side = Small_cuts.side_without g [ id ] in
            { verdict = Cut_found { value = 2; side }; cost = c_pairs }
        | [] -> (
            match Small_cuts.cut_pairs g with
            | (e, f) :: _ ->
                let side = Small_cuts.side_without g [ e; f ] in
                { verdict = Cut_found { value = 2; side }; cost = c_pairs }
            | [] -> { verdict = Lambda_at_least_3; cost = c_pairs }))
  end
