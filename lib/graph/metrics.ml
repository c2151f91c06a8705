type t = {
  n : int;
  m : int;
  total_weight : int;
  min_degree : int;
  max_degree : int;
  avg_degree : float;
  min_weighted_degree : int;
  diameter : int;
  triangle_density : float;
}

let triangle_density g =
  let n = Graph.n g in
  (* adjacency membership for closure tests *)
  let tbl = Hashtbl.create (2 * Graph.m g) in
  Graph.iter_edges (fun e -> Hashtbl.replace tbl (e.Graph.u, e.Graph.v) ()) g;
  let connected u v = Hashtbl.mem tbl (min u v, max u v) in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let paths = ref 0 and closed = ref 0 in
  for v = 0 to n - 1 do
    for i = off.(v) to off.(v + 1) - 1 do
      for j = i + 1 to off.(v + 1) - 1 do
        let a = nbr.(i) and b = nbr.(j) in
        if a <> b then begin
          incr paths;
          if connected a b then incr closed
        end
      done
    done
  done;
  if !paths = 0 then 0.0 else float_of_int !closed /. float_of_int !paths

let compute g =
  let n = Graph.n g in
  let degs = Array.init n (Graph.degree g) in
  let wdegs = Array.init n (Graph.weighted_degree g) in
  {
    n;
    m = Graph.m g;
    total_weight = Graph.total_weight g;
    min_degree = Array.fold_left min max_int degs;
    max_degree = Array.fold_left max 0 degs;
    avg_degree = 2.0 *. float_of_int (Graph.m g) /. float_of_int n;
    min_weighted_degree = Array.fold_left min max_int wdegs;
    diameter = Diameter.estimate g;
    triangle_density = triangle_density g;
  }

let columns =
  [ "n"; "m"; "W"; "deg min/avg/max"; "min wdeg"; "D"; "clustering" ]

let pp_row t =
  [
    string_of_int t.n;
    string_of_int t.m;
    string_of_int t.total_weight;
    Printf.sprintf "%d/%.1f/%d" t.min_degree t.avg_degree t.max_degree;
    string_of_int t.min_weighted_degree;
    string_of_int t.diameter;
    Printf.sprintf "%.3f" t.triangle_density;
  ]
