module Network = Mincut_congest.Network
module Config = Mincut_congest.Config
module Graph = Mincut_graph.Graph

type flag = { node : int; round : int; words : int; limit : int }

type report = {
  order_dependence : (int * int) option;
  violation : string option;
  max_payload_words : int;
  max_state_bytes : int;
  payload_limit : int;
  flags : flag list;
  ok : bool;
}

(* The word budget's c·log n scaling, stated in words: one word stands
   for Θ(log n) bits (Config.bits_per_word), so a model-conforming
   payload is O(1) words and certainly at most ~log₂ n words once n is
   past the tiny regime.  The floor at the default per-message budget
   keeps small graphs from flagging legitimate constant payloads. *)
let default_limit n =
  max Config.default.Config.words_per_message (Mincut_util.Intmath.ceil_log2 n)

let run ?(cfg = Config.default) ?limit ~words g prog =
  let n = Graph.n g in
  let payload_limit = match limit with Some l -> l | None -> default_limit n in
  let max_payload = ref 0 in
  let max_state = ref 0 in
  let flags = ref [] in
  let probe ~node ~round ~inbox:_ state outbox =
    let state_bytes = Bytes.length (Marshal.to_bytes state []) in
    if state_bytes > !max_state then max_state := state_bytes;
    List.iter
      (fun (_, payload) ->
        let w = words payload in
        if w > !max_payload then max_payload := w;
        if w > payload_limit then
          flags := { node; round; words = w; limit = payload_limit } :: !flags)
      outbox
  in
  let cfg = Config.sanitized cfg in
  let finish order violation =
    let flags = List.rev !flags in
    {
      order_dependence = order;
      violation;
      max_payload_words = !max_payload;
      max_state_bytes = !max_state;
      payload_limit;
      flags;
      ok = Option.is_none order && Option.is_none violation && flags = [];
    }
  in
  match Network.run ~cfg ~probe ~words ~result:(fun _ _ -> ()) g prog with
  | _ -> finish None None
  | exception Network.Model_violation v -> (
      match (v.Network.kind, v.Network.sender) with
      | Network.Order_dependence, Some node ->
          finish (Some (node, v.Network.round)) None
      | _ -> finish None (Some (Network.violation_message v)))

let describe r =
  let flags =
    List.map
      (fun f ->
        Printf.sprintf "node %d round %d sent %d words (limit %d)" f.node
          f.round f.words f.limit)
      r.flags
  in
  let order =
    match r.order_dependence with
    | None -> []
    | Some (node, round) ->
        [ Printf.sprintf "order-dependence at node %d, round %d" node round ]
  in
  let violation = match r.violation with None -> [] | Some m -> [ m ] in
  order @ violation @ flags
