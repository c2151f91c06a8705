type skeleton = { graph : Graph.t; p : float }

let sample ~rng g ~p =
  assert (p >= 0.0 && p <= 1.0);
  let graph =
    Graph.reweight g ~f:(fun e ->
        if p >= 1.0 then e.w else Mincut_util.Rng.binomial rng e.w p)
  in
  { graph; p }

let recommended_p ~n ~epsilon ~lambda_estimate =
  assert (epsilon > 0.0 && lambda_estimate >= 1);
  let c = 3.0 in
  Float.min 1.0
    (c *. log (float_of_int (max 2 n))
    /. (epsilon *. epsilon *. float_of_int lambda_estimate))
