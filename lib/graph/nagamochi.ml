type scan = { order : int array; edge_low : int array }

let scan g =
  let n = Graph.n g in
  let r = Array.make n 0 in
  let scanned = Array.make n false in
  let edge_low = Array.make (Graph.m g) 0 in
  let order = Array.make n (-1) in
  (* lazy max-heap of (key, vertex) *)
  let heap =
    Mincut_util.Heap.create ~cmp:(fun (k1, v1) (k2, v2) ->
        match Int.compare k2 k1 with 0 -> Int.compare v1 v2 | c -> c)
  in
  for v = 0 to n - 1 do
    Mincut_util.Heap.push heap (0, v)
  done;
  let idx = ref 0 in
  let rec pop () =
    match Mincut_util.Heap.pop heap with
    | None -> None
    | Some (key, v) ->
        if scanned.(v) || key <> r.(v) then pop () (* stale entry *) else Some v
  in
  let rec drain () =
    match pop () with
    | None -> ()
    | Some u ->
        scanned.(u) <- true;
        order.(!idx) <- u;
        incr idx;
        Array.iter
          (fun (v, id) ->
            if not scanned.(v) then begin
              edge_low.(id) <- r.(v) + 1;
              r.(v) <- r.(v) + Graph.weight g id;
              Mincut_util.Heap.push heap (r.(v), v)
            end)
          (Graph.adj g u);
        drain ()
  in
  drain ();
  { order; edge_low }

let certificate g ~k =
  let { edge_low; _ } = scan g in
  Graph.reweight g ~f:(fun e -> min e.w (k - edge_low.(e.id) + 1))

let contract_above g ~k =
  let { edge_low; _ } = scan g in
  let n = Graph.n g in
  let uf = Union_find.create n in
  Graph.iter_edges
    (fun e ->
      (* the edge's units fill forests [low .. low + w - 1]; one beyond
         forest k makes its endpoints (k+1)-edge-connected *)
      if edge_low.(e.id) + e.w - 1 > k then ignore (Union_find.union uf e.u e.v))
    g;
  (* renumber representatives densely *)
  let map = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    let rv = Union_find.find uf v in
    if map.(rv) = -1 then begin
      map.(rv) <- !next;
      incr next
    end;
    map.(v) <- map.(rv)
  done;
  let triples = ref [] in
  Graph.iter_edges
    (fun e ->
      let u = map.(e.u) and v = map.(e.v) in
      if u <> v then triples := (u, v, e.w) :: !triples)
    g;
  (Graph.create ~n:!next !triples, map)
