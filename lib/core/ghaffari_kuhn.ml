module Graph = Mincut_graph.Graph
module Bfs = Mincut_graph.Bfs
module Nagamochi = Mincut_graph.Nagamochi
module Bitset = Mincut_util.Bitset
module Cost = Mincut_congest.Cost

type result = {
  value : int;
  side : Bitset.t;
  iterations : int;
  cost : Cost.t;
}

let run ?(params = Params.default) ~epsilon g =
  if epsilon <= 0.0 then invalid_arg "Ghaffari_kuhn.run: epsilon must be positive";
  let n = Graph.n g in
  if n < 2 then invalid_arg "Ghaffari_kuhn.run: need n >= 2";
  if not (Bfs.is_connected g) then invalid_arg "Ghaffari_kuhn.run: disconnected graph";
  let diameter = Bfs.eccentricity g 0 in
  let iteration_rounds = Params.kp_mst_rounds params ~n ~diameter in
  (* [to_orig.(v)] = representative of v's supernode in the current
     contracted graph; maintained to recover cut sides in G. *)
  let to_cur = Array.init n (fun v -> v) in
  let side_of_cur h target =
    ignore h;
    let side = Bitset.create n in
    for v = 0 to n - 1 do
      if to_cur.(v) = target then Bitset.add side v
    done;
    side
  in
  let best_value = ref max_int in
  let best_side = ref (Bitset.create n) in
  let consider h node =
    let d = Graph.weighted_degree h node in
    if d < !best_value then begin
      best_value := d;
      best_side := side_of_cur h node
    end
  in
  let rec loop h iterations cost =
    if Graph.n h < 2 then (iterations, cost)
    else begin
    let node = Graph.min_degree_node h in
    let delta = Graph.weighted_degree h node in
    consider h node;
    let cost =
      Cost.( ++ ) cost
        (Cost.charged
           (Printf.sprintf "gk iteration %d (charged at published bound)" (iterations + 1))
           iteration_rounds)
    in
    if Graph.n h <= 2 then (iterations + 1, cost)
    else begin
      (* contract every edge whose NI forest index exceeds δ/(2+ε):
         endpoints of such edges are more connected than any cut below
         the current candidate, so no minimum cut separates them *)
      let t = max 1 (int_of_float (floor (float_of_int delta /. (2.0 +. epsilon)))) in
      let h', map = Nagamochi.contract_above h ~k:t in
      if Graph.n h' = Graph.n h then (iterations + 1, cost)
      else begin
        for v = 0 to n - 1 do
          to_cur.(v) <- map.(to_cur.(v))
        done;
        loop h' (iterations + 1) cost
      end
    end
    end
  in
  let iterations, cost = loop g 0 Cost.zero in
  { value = !best_value; side = !best_side; iterations; cost }
