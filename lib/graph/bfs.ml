type result = {
  dist : int array;
  parent : int array;
}

let run g ~source =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let q = Queue.create () in
  dist.(source) <- 0;
  Queue.add source q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_adj g v (fun u _ ->
        if dist.(u) = -1 then begin
          dist.(u) <- dist.(v) + 1;
          parent.(u) <- v;
          Queue.add u q
        end
        (* of the neighbours one level up, the least id is the parent *)
        else if dist.(u) = dist.(v) + 1 && v < parent.(u) then parent.(u) <- v)
  done;
  { dist; parent }

let eccentricity g v =
  let r = run g ~source:v in
  Array.fold_left Int.max 0 r.dist

let is_connected g =
  let n = Graph.n g in
  n <= 1
  ||
  let r = run g ~source:0 in
  Array.for_all (fun d -> d >= 0) r.dist

let component_of g v =
  let r = run g ~source:v in
  let set = Mincut_util.Bitset.create (Graph.n g) in
  Array.iteri (fun u d -> if d >= 0 then Mincut_util.Bitset.add set u) r.dist;
  set
