let kruskal_by g ~cmp =
  let es = Array.copy (Graph.edges g) in
  Array.sort cmp es;
  let uf = Union_find.create (Graph.n g) in
  let acc = ref [] in
  Array.iter
    (fun (e : Graph.edge) -> if Union_find.union uf e.u e.v then acc := e.id :: !acc)
    es;
  List.rev !acc

let weight_order (a : Graph.edge) (b : Graph.edge) =
  match Int.compare a.w b.w with 0 -> Int.compare a.id b.id | c -> c

let kruskal g = kruskal_by g ~cmp:weight_order

let prim g =
  let n = Graph.n g in
  if n = 0 then []
  else begin
    let in_tree = Array.make n false in
    let acc = ref [] in
    let heap =
      Mincut_util.Heap.create ~cmp:(fun (w1, id1, _) (w2, id2, _) ->
          match Int.compare w1 w2 with 0 -> Int.compare id1 id2 | c -> c)
    in
    let visit v =
      in_tree.(v) <- true;
      Graph.iter_adj g v (fun u id ->
          if not in_tree.(u) then Mincut_util.Heap.push heap (Graph.weight g id, id, u))
    in
    visit 0;
    let count = ref 1 in
    while !count < n do
      match Mincut_util.Heap.pop heap with
      | None -> invalid_arg "Mst_seq.prim: disconnected graph"
      | Some (_, id, u) ->
          if not in_tree.(u) then begin
            acc := id :: !acc;
            incr count;
            visit u
          end
    done;
    List.rev !acc
  end

let boruvka g =
  let n = Graph.n g in
  let uf = Union_find.create n in
  let acc = ref [] in
  let progress = ref true in
  while Union_find.count uf > 1 && !progress do
    progress := false;
    (* cheapest outgoing edge per component, ties by edge id *)
    let best = Hashtbl.create 16 in
    Graph.iter_edges
      (fun e ->
        let ru = Union_find.find uf e.u and rv = Union_find.find uf e.v in
        if ru <> rv then begin
          let better r =
            match Hashtbl.find_opt best r with
            | None -> true
            | Some (w, id) -> e.w < w || (e.w = w && e.id < id)
          in
          if better ru then Hashtbl.replace best ru (e.w, e.id);
          if better rv then Hashtbl.replace best rv (e.w, e.id)
        end)
      g;
    Hashtbl.iter
      (fun _ (_, id) ->
        let u, v = Graph.endpoints g id in
        if Union_find.union uf u v then begin
          acc := id :: !acc;
          progress := true
        end)
      best
  done;
  List.rev !acc

let tree_weight g ids = List.fold_left (fun acc id -> acc + Graph.weight g id) 0 ids

let is_spanning_tree g ids =
  let n = Graph.n g in
  List.length ids = n - 1
  &&
  let uf = Union_find.create n in
  List.for_all
    (fun id ->
      let u, v = Graph.endpoints g id in
      Union_find.union uf u v)
    ids
