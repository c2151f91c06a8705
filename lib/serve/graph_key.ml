module Graph = Mincut_graph.Graph
module Handle = Mincut_graph.Handle
module Hash = Mincut_util.Hash
module Api = Mincut_core.Api
module Params = Mincut_core.Params

let canonical_triples g =
  let triples =
    Array.map (fun e -> (e.Graph.u, e.Graph.v, e.Graph.w)) (Graph.edges g)
  in
  (* edges already satisfy u < v, so plain lexicographic order on the
     triples is a canonical form of the multiset *)
  Array.sort
    (fun (u1, v1, w1) (u2, v2, w2) ->
      match Int.compare u1 u2 with
      | 0 -> ( match Int.compare v1 v2 with 0 -> Int.compare w1 w2 | c -> c)
      | c -> c)
    triples;
  triples

let structural_hash g =
  let h = Hash.create () in
  Hash.add_int h (Graph.n g);
  Array.iter
    (fun (u, v, w) ->
      Hash.add_int h u;
      Hash.add_int h v;
      Hash.add_int h w)
    (canonical_triples g);
  Hash.value h

let canonicalize g = Graph.of_array ~n:(Graph.n g) (canonical_triples g)

(* the literal [kp1] prefix is the retired Kutten–Peleg multiplier,
   kept so every cache key stays byte-identical *)
let params_id (p : Params.t) =
  Printf.sprintf "kp1:%s:w%d:r%d"
    (if p.Params.run_real_primitives then "real" else "charged")
    p.Params.congest.Mincut_congest.Config.words_per_message
    p.Params.congest.Mincut_congest.Config.max_rounds

let key ~algorithm ~seed ~trees ~params g =
  Printf.sprintf "%s|%s|n%d|m%d|w%d|%s"
    (Api.solve_tag algorithm seed trees)
    (params_id params) (Graph.n g) (Graph.m g) (Graph.total_weight g)
    (Hash.to_hex (structural_hash g))

let versioned_key ~algorithm ~seed ~trees ~params h =
  Printf.sprintf "inc|%s|%s|n%d|c%d|w%d|%s"
    (Api.solve_tag algorithm seed trees)
    (params_id params) (Handle.n h) (Handle.channels h) (Handle.total_weight h)
    (Hash.to_hex (Handle.digest h))
