module Graph = Mincut_graph.Graph
module Bfs = Mincut_graph.Bfs
module Sampling = Mincut_graph.Sampling
module Bitset = Mincut_util.Bitset
module Cost = Mincut_congest.Cost
module Pool = Mincut_parallel.Pool

type result = {
  value : int;
  side : Bitset.t;
  p : float;
  skeleton_value : int;
  guesses : int;
  cost : Cost.t;
}

let run ?(params = Params.default) ?(trees = 32) ?(pool = Pool.sequential) ~rng
    ~epsilon g =
  if epsilon <= 0.0 then invalid_arg "Approx.run: epsilon must be positive";
  let n = Graph.n g in
  if n < 2 then invalid_arg "Approx.run: need n >= 2";
  if not (Bfs.is_connected g) then invalid_arg "Approx.run: disconnected graph";
  (* skeleton min cut concentrates around p·λ = c·ln n / ε²; treat a
     result below half of that as evidence the guess λ̂ was too high *)
  let threshold =
    0.5 *. 3.0 *. log (float_of_int (max 2 n)) /. (epsilon *. epsilon)
  in
  let rec search lambda_hat guesses cost_acc =
    let p = Sampling.recommended_p ~n ~epsilon ~lambda_estimate:lambda_hat in
    if p >= 1.0 then begin
      (* small min cut: the exact algorithm runs on G itself *)
      let r = Exact.run ~params ~pool ~trees g in
      {
        value = r.Exact.value;
        side = r.Exact.side;
        p = 1.0;
        skeleton_value = r.Exact.value;
        guesses;
        cost = Cost.( ++ ) cost_acc (Cost.group "exact on G (p = 1)" r.Exact.cost);
      }
    end
    else begin
      (* sampling is a zero-round local step: each node flips coins for
         its incident edges *)
      let sk = Sampling.sample ~rng g ~p in
      let skeleton_ok =
        Graph.m sk.Sampling.graph > 0 && Bfs.is_connected sk.Sampling.graph
      in
      if not skeleton_ok then
        (* guess way too high — the skeleton fell apart *)
        search (max 1 (lambda_hat / 2)) (guesses + 1)
          (Cost.( ++ ) cost_acc (Cost.scheduled "skeleton connectivity check" 1))
      else begin
        let r = Exact.run ~params ~pool ~trees sk.Sampling.graph in
        let cost_acc =
          Cost.( ++ ) cost_acc
            (Cost.group
               (Printf.sprintf "exact on skeleton (lambda_hat = %d)" lambda_hat)
               r.Exact.cost)
        in
        if float_of_int r.Exact.value < threshold && lambda_hat > 1 then
          search (max 1 (lambda_hat / 2)) (guesses + 1) cost_acc
        else
          (* evaluate the skeleton's best side on the original graph:
             one exchange along each edge + a global sum, all within the
             machinery already charged *)
          let value = Graph.cut_of_bitset g r.Exact.side in
          {
            value;
            side = r.Exact.side;
            p;
            skeleton_value = r.Exact.value;
            guesses;
            cost = cost_acc;
          }
      end
    end
  in
  search (max 1 (Exact.min_weighted_degree g)) 0 Cost.zero
