
(* A bridge in the weighted sense must carry weight 1: an edge of weight
   w >= 2 stands for w parallel unit edges, and removing one of them
   leaves the rest. *)
let bridges g =
  List.filter (fun id -> Graph.weight g id = 1) (Bridge.bridges g)

(* Every 2-cut contains at least one edge of any fixed spanning tree
   (removing two non-tree edges leaves the tree intact), so it suffices
   to scan tree edges e and collect the bridges of G − e.  O(n·(n+m)). *)
let cut_pairs g =
  if not (Bfs.is_connected g) then []
  else begin
    let tree_ids = Mst_seq.kruskal g in
    let acc = ref [] in
    List.iter
      (fun e ->
        if Graph.weight g e = 1 then begin
          (* sub_by_edges renumbers; filter preserves order, so the i-th
             kept edge's original id is the i-th kept id *)
          let kept =
            Array.of_list
              (List.filter (fun id -> id <> e)
                 (List.init (Graph.m g) (fun i -> i)))
          in
          let without = Graph.sub_by_edges g ~keep:(fun e' -> e'.Graph.id <> e) in
          List.iter
            (fun f' ->
              let f = kept.(f') in
              if Graph.weight g f = 1 then
                acc := (min e f, max e f) :: !acc)
            (Bridge.bridges without)
        end)
      tree_ids;
    let pairs =
      List.sort_uniq
        (fun (a1, a2) (b1, b2) ->
          match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)
        !acc
    in
    (* pairs that include a bridge of G are 1-cuts plus a spectator; keep
       only genuine 2-cuts *)
    let bs = bridges g in
    List.filter (fun (e, f) -> not (List.mem e bs || List.mem f bs)) pairs
  end

(* a weight-2 topological bridge is by itself a cut of value 2 *)
let heavy_bridges g =
  List.filter (fun id -> Graph.weight g id = 2) (Bridge.bridges g)

let edge_connectivity_le2 g =
  if not (Bfs.is_connected g) then Some 0
  else if bridges g <> [] then Some 1
  else if heavy_bridges g <> [] || cut_pairs g <> [] then Some 2
  else None

let side_without g ids =
  match ids with
  | [] -> invalid_arg "Small_cuts.side_without: no edges"
  | id :: _ ->
      let without = Graph.sub_by_edges g ~keep:(fun e -> not (List.mem e.Graph.id ids)) in
      Bfs.component_of without (fst (Graph.endpoints g id))
