module Graph = Mincut_graph.Graph
module Bitset = Mincut_util.Bitset
module Cost = Mincut_congest.Cost
module Rng = Mincut_util.Rng

type algorithm =
  | Exact_small_lambda
  | Exact_two_respect
  | Approx of float
  | Ghaffari_kuhn of float
  | Su of float

let algorithm_name = function
  | Exact_small_lambda -> "exact (tree packing + 1-respect)"
  | Exact_two_respect -> "exact (tree packing + 2-respect)"
  | Approx e -> Printf.sprintf "(1+%.2f)-approx (skeleton + exact)" e
  | Ghaffari_kuhn e -> Printf.sprintf "(2+%.2f)-approx (Ghaffari-Kuhn)" e
  | Su e -> Printf.sprintf "(1+%.2f)-style (Su)" e

(* the one name table: [algorithm_of_name] parses it and [solve_tag]
   keys on it *)
let short_name = function
  | Exact_small_lambda -> "exact"
  | Exact_two_respect -> "exact2"
  | Approx _ -> "approx"
  | Ghaffari_kuhn _ -> "gk"
  | Su _ -> "su"

let algorithm_of_name ~epsilon name =
  match
    List.find_opt
      (fun a -> short_name a = name)
      [ Exact_small_lambda; Exact_two_respect; Approx epsilon; Ghaffari_kuhn epsilon; Su epsilon ]
  with
  | Some a -> Ok a
  | None -> Error (Printf.sprintf "unknown algorithm %S" name)

type summary = {
  algorithm : algorithm;
  value : int;
  side : Bitset.t;
  rounds : int;
  cost : Cost.t;
  breakdown : (string * int) list;
}

let of_cost algorithm value side (cost : Cost.t) =
  {
    algorithm;
    value;
    side;
    rounds = cost.Cost.rounds;
    cost;
    breakdown = Cost.breakdown cost;
  }

let estimate ?seed ?trials g = Sample_estimate.run ?seed ?trials g

let min_cut ?(params = Params.default) ?(algorithm = Exact_small_lambda) ?(seed = 0)
    ?lambda_upper ?trees ?(workers = 1) g =
  if workers < 1 then invalid_arg "Api.min_cut: workers must be >= 1";
  let rng = Rng.create seed in
  (* the pool only changes who computes what, never the answer: every
     consumer merges in index order, so workers stays out of any cache
     key a caller might build from the inputs *)
  let pool =
    if workers = 1 then Mincut_parallel.Pool.sequential
    else Mincut_parallel.Pool.create ~workers ()
  in
  match algorithm with
  | Exact_small_lambda ->
      let r = Exact.run ~params ~pool ?lambda_upper ?trees g in
      of_cost algorithm r.Exact.value r.Exact.side r.Exact.cost
  | _ when Graph.n g >= 2 && not (Mincut_graph.Bfs.is_connected g) ->
      (* every other algorithm answers a disconnected graph with the
         exact path's 0-cut *)
      let r = Exact.run ~params g in
      of_cost algorithm r.Exact.value r.Exact.side r.Exact.cost
  | Exact_two_respect ->
      let r = Two_respect.min_cut ~params ~pool ?trees g in
      of_cost algorithm r.Two_respect.value r.Two_respect.side r.Two_respect.cost
  | Approx epsilon ->
      let r = Approx.run ~params ~pool ?trees ~rng ~epsilon g in
      of_cost algorithm r.Approx.value r.Approx.side r.Approx.cost
  | Ghaffari_kuhn epsilon ->
      let r = Ghaffari_kuhn.run ~params ~epsilon g in
      of_cost algorithm r.Ghaffari_kuhn.value r.Ghaffari_kuhn.side r.Ghaffari_kuhn.cost
  | Su epsilon ->
      let r = Su.run ~params ~rng ~epsilon g in
      of_cost algorithm r.Su.value r.Su.side r.Su.cost

let one_respecting_cut ?(params = Params.default) g tree = One_respect.run ~params g tree

let verify g summary =
  let c = Bitset.cardinal summary.side in
  c >= 1
  && c <= Graph.n g - 1
  && Graph.cut_of_bitset g summary.side = summary.value

(* ---- incremental sessions ------------------------------------------- *)

type session = {
  inc : Incremental.t;
  sparams : Params.t;
  (* summaries anchored to the current (λ, side)-stable generation:
     (solve tag, generation, summary).  While Incremental proves
     (λ, side) unchanged, a matching solve is served verbatim. *)
  mutable anchors : (string * int * summary) list;
}

type delta_answer = Incremental.answer = {
  lambda : int;
  mode : Incremental.mode;
}

let open_session ?(params = Params.default) g =
  { inc = Incremental.create g; sparams = params; anchors = [] }

let apply_delta s op = Incremental.apply s.inc op
let session_lambda s = Incremental.lambda s.inc
let session_side s = Incremental.side s.inc
let session_handle s = Incremental.handle s.inc
let session_graph s = Incremental.graph s.inc
let session_stats s = Incremental.stats s.inc

(* the (algorithm, seed, trees) coordinates of a solve, as a stable
   string — %h renders ε exactly *)
let solve_tag algorithm seed trees =
  let a =
    match algorithm with
    | Exact_small_lambda | Exact_two_respect -> short_name algorithm
    | Approx e | Ghaffari_kuhn e | Su e -> Printf.sprintf "%s:%h" (short_name algorithm) e
  in
  Printf.sprintf "%s|s%d|t%s" a seed
    (match trees with None -> "-" | Some t -> string_of_int t)

let min_cut_session ?(algorithm = Exact_small_lambda) ?(seed = 0) ?trees s =
  let tag = solve_tag algorithm seed trees in
  let gen = Incremental.generation s.inc in
  s.anchors <- List.filter (fun (_, g0, _) -> g0 = gen) s.anchors;
  match List.find_opt (fun (t0, _, _) -> String.equal t0 tag) s.anchors with
  | Some (_, _, summary) -> (summary, true)
  | None ->
      (* every delta re-solves the live graph exactly when λ may have
         moved, so the session's λ is exact and seeds the packing budget
         with the tightest valid [lambda_upper] there is *)
      let lambda = Incremental.lambda s.inc in
      let summary =
        min_cut ~params:s.sparams ~algorithm ~seed
          ~lambda_upper:(max 1 lambda) ?trees (Incremental.graph s.inc)
      in
      s.anchors <- (tag, gen, summary) :: s.anchors;
      (summary, false)
