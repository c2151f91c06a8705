module Graph = Mincut_graph.Graph
module Bfs = Mincut_graph.Bfs
module Bridge = Mincut_graph.Bridge
module Small_cuts = Mincut_graph.Small_cuts
module Sampling = Mincut_graph.Sampling
module Bitset = Mincut_util.Bitset
module Cost = Mincut_congest.Cost

type result = {
  value : int;
  side : Bitset.t;
  samples : int;
  cost : Cost.t;
}

let run ?(params = Params.default) ~rng ~epsilon g =
  if epsilon <= 0.0 then invalid_arg "Su.run: epsilon must be positive";
  let n = Graph.n g in
  if n < 2 then invalid_arg "Su.run: need n >= 2";
  if not (Bfs.is_connected g) then invalid_arg "Su.run: disconnected graph";
  let diameter = Bfs.eccentricity g 0 in
  let thurimella_rounds = Params.kp_mst_rounds params ~n ~diameter in
  let best_value = ref max_int in
  let best_side = ref (Bitset.create n) in
  let consider side =
    let c = Bitset.cardinal side in
    if c >= 1 && c <= n - 1 then begin
      let v = Graph.cut_of_bitset g side in
      if v < !best_value then begin
        best_value := v;
        best_side := side
      end
    end
  in
  (* seed with the min-degree cut so the result is always a valid cut *)
  let mindeg_node = Graph.min_degree_node g in
  let seed_side = Bitset.create n in
  Bitset.add seed_side mindeg_node;
  consider seed_side;
  let samples = ref 0 in
  let cost = ref Cost.zero in
  (* downward search over the min-cut guess; aim the skeleton min cut at
     about 1/epsilon (a handful) so a bridge exists w.h.p. *)
  let rec guess_loop lambda_hat =
    let target = 1.0 /. epsilon in
    let p = Float.min 1.0 (target /. float_of_int lambda_hat) in
    for _ = 1 to 3 do
      incr samples;
      let sk = (Sampling.sample ~rng g ~p).Sampling.graph in
      cost :=
        Cost.( ++ ) !cost
          (Cost.charged "su: thurimella bridge finding (charged)" thurimella_rounds);
      if not (Bfs.is_connected sk) || Graph.m sk = 0 then begin
        (* skeleton components are themselves cut candidates *)
        if Graph.n sk > 0 then consider (Bfs.component_of sk 0)
      end
      else
        List.iter (fun id -> consider (Small_cuts.side_without sk [ id ])) (Bridge.bridges sk)
    done;
    if lambda_hat > 1 then guess_loop (lambda_hat / 2)
  in
  guess_loop (max 1 (Graph.weighted_degree g mindeg_node));
  { value = !best_value; side = !best_side; samples = !samples; cost = !cost }
