module Graph = Mincut_graph.Graph
module Bfs = Mincut_graph.Bfs
module Rng = Mincut_util.Rng
module Intmath = Mincut_util.Intmath
module Cost = Mincut_congest.Cost

type result = {
  estimate : int;
  lower : int;
  upper : int;
  level : int;
  levels_tried : int;
  trials_per_level : int;
  factor : int;
  saturated : bool;
  cost : Cost.t;
}

(* 2^k capped so it never overflows the int range or exceeds [cap] *)
let pow2_capped k ~cap = if k >= 62 then cap else Int.min (1 lsl k) cap

let run ?(seed = 0) ?trials g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Sample_estimate.run: need n >= 2";
  if not (Bfs.is_connected g) then
    (* λ = 0, detected exactly the way Exact.run does: the BFS-tree
       construction times out in each component *)
    {
      estimate = 0;
      lower = 0;
      upper = 0;
      level = 0;
      levels_tried = 0;
      trials_per_level = 0;
      factor = 1;
      saturated = false;
      cost = Cost.scheduled "sampling ladder (component detection)" n;
    }
  else begin
    let w_total = Graph.total_weight g in
    let log2n = Intmath.ceil_log2 (Int.max 2 n) in
    let trials = match trials with Some t -> Int.max 1 t | None -> Int.max 4 log2n in
    let levels = Int.max 1 (Intmath.ceil_log2 (Int.max 2 w_total)) in
    let rng = Rng.create seed in
    let off = Graph.csr_offsets g in
    let nbr = Graph.csr_neighbors g in
    let eid = Graph.csr_edge_ids g in
    let m = Graph.m g in
    (* per-trial scratch, reused across the whole ladder: the sampled
       edge set, a tag-versioned visited mark, and the BFS queue *)
    let keep = Array.make (Int.max 1 m) false in
    let mark = Array.make n (-1) in
    let queue = Array.make n 0 in
    let trial_connected ~p ~tag =
      Graph.iter_edges
        (fun e -> keep.(e.Graph.id) <- Rng.any_success rng e.Graph.w p)
        g;
      let head = ref 0 in
      let tail = ref 0 in
      mark.(0) <- tag;
      queue.(!tail) <- 0;
      incr tail;
      let seen = ref 1 in
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        for s = off.(v) to off.(v + 1) - 1 do
          let u = nbr.(s) in
          if mark.(u) <> tag && keep.(eid.(s)) then begin
            mark.(u) <- tag;
            incr seen;
            queue.(!tail) <- u;
            incr tail
          end
        done
      done;
      !seen = n
    in
    let diameter = Bfs.eccentricity g 0 in
    let cost = ref Cost.zero in
    let level = ref levels in
    let saturated = ref true in
    let tag = ref 0 in
    let i = ref 1 in
    while !saturated && !i <= levels do
      let p = Float.ldexp 1.0 (- !i) in
      let disconnected = ref false in
      for _t = 1 to trials do
        incr tag;
        if not (trial_connected ~p ~tag:!tag) then disconnected := true
      done;
      (* each test is a BFS flood from the root over its sampled
         subgraph; the [trials] floods of one level are independent and
         pipeline behind each other on the same tree levels *)
      cost :=
        Cost.( ++ ) !cost
          (Cost.scheduled
             (Printf.sprintf "level %d: %d connectivity tests (p=2^-%d)" !i
                trials !i)
             (diameter + 2 + (trials - 1)));
      if !disconnected then begin
        level := !i;
        saturated := false
      end
      else incr i
    done;
    let levels_tried = if !saturated then levels else !i in
    let factor = Int.max 4 (4 * log2n) in
    let estimate = pow2_capped !level ~cap:w_total in
    let lower = Int.max 1 (estimate / factor) in
    let upper =
      if !saturated then w_total
      else Int.min w_total (pow2_capped (!level + Intmath.ceil_log2 factor) ~cap:w_total)
    in
    {
      estimate;
      lower;
      upper;
      level = !level;
      levels_tried;
      trials_per_level = trials;
      factor;
      saturated = !saturated;
      cost = Cost.group "sampling λ-estimate ladder" !cost;
    }
  end

let tree_budget_hint r =
  if r.estimate > 0 && not r.saturated then Some r.upper else None
