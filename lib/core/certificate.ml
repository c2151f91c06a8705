module Graph = Mincut_graph.Graph
module Bitset = Mincut_util.Bitset
module Network = Mincut_congest.Network
module Primitives = Mincut_congest.Primitives
module Cost = Mincut_congest.Cost

type report = {
  accepted : bool;
  claimed : int;
  recomputed : int;
  rounds : int;
}

let outputs g side = Array.init (Graph.n g) (Bitset.mem side)

let certify g ~value ~side =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Certificate.certify: need n >= 2";
  let cfg = Params.default.Params.congest in
  let bits = outputs g side in
  (* one real round of bit exchange; each node's crossing weight is the
     weight of its edges towards neighbors that reported the other bit *)
  let heard, x_audit = Primitives.exchange ~cfg ~words:(fun _ -> 1) g bits in
  let crossings =
    Array.init n (fun v ->
        let acc = ref 0 in
        Graph.iter_adj g v (fun u id ->
            if List.assoc u heard.(v) <> bits.(v) then acc := !acc + Graph.weight g id);
        !acc)
  in
  let tree, c_bfs = Primitives.bfs_tree ~cfg g ~root:0 in
  let double_total, c_sum = Primitives.convergecast_sum ~cfg g ~tree ~values:crossings in
  let in_count, c_cnt =
    Primitives.convergecast_sum ~cfg g ~tree
      ~values:(Array.map (fun b -> if b then 1 else 0) bits)
  in
  let recomputed = double_total / 2 in
  let accepted = recomputed = value && in_count >= 1 && in_count <= n - 1 in
  {
    accepted;
    claimed = value;
    recomputed;
    rounds = x_audit.Network.rounds + c_bfs.Cost.rounds + c_sum.Cost.rounds + c_cnt.Cost.rounds;
  }

let certify_summary g (s : Api.summary) = certify g ~value:s.Api.value ~side:s.Api.side
