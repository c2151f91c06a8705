module Network = Mincut_congest.Network
module Config = Mincut_congest.Config
module Graph = Mincut_graph.Graph

type flag = { node : int; round : int; words : int; limit : int }

type report = {
  order_dependence : (int * int) option;
  violation : string option;
  payload_limit : int;
  flag : flag option;
  ok : bool;
}

(* The word budget's c·log n scaling, stated in words: one word stands
   for Θ(log n) bits (Config.bits_per_word), so a model-conforming
   payload is O(1) words and certainly at most ~log₂ n words once n is
   past the tiny regime.  The floor at the default per-message budget
   keeps small graphs from flagging legitimate constant payloads. *)
let default_limit n =
  max Config.default.Config.words_per_message (Mincut_util.Intmath.ceil_log2 n)

(* One word check serves both limits: the engine runs at the lesser of
   the caller's budget and the scaling limit, and the payload it stops
   at is sorted into a flag (past the limit), a violation (past the
   budget, rendered against it), or both. *)
let run ?(cfg = Config.default) ?limit ~words g prog =
  let budget = cfg.Config.words_per_message in
  let payload_limit = match limit with Some l -> l | None -> default_limit (Graph.n g) in
  let cfg =
    Config.sanitized { cfg with Config.words_per_message = Int.min budget payload_limit }
  in
  let report ?order_dependence ?flag ?violation () =
    {
      order_dependence;
      violation;
      payload_limit;
      flag;
      ok = Option.is_none order_dependence && Option.is_none flag && Option.is_none violation;
    }
  in
  match Network.run ~cfg ~words ~result:(fun _ _ -> ()) g prog with
  | _ -> report ()
  | exception Network.Model_violation v -> (
      match (v.Network.kind, v.Network.sender, v.Network.words) with
      | Network.Order_dependence, Some node, _ ->
          report ~order_dependence:(node, v.Network.round) ()
      | Network.Oversized_message, Some node, Some w ->
          let flag =
            if w > payload_limit then
              Some { node; round = v.Network.round; words = w; limit = payload_limit }
            else None
          in
          let violation =
            if w > budget then
              Some (Network.violation_message { v with Network.budget = Some budget })
            else None
          in
          report ?flag ?violation ()
      | _ -> report ~violation:(Network.violation_message v) ())

let describe r =
  let flag =
    match r.flag with
    | None -> []
    | Some f ->
        [
          Printf.sprintf "node %d round %d sent %d words (limit %d)" f.node f.round
            f.words f.limit;
        ]
  in
  let order =
    match r.order_dependence with
    | None -> []
    | Some (node, round) ->
        [ Printf.sprintf "order-dependence at node %d, round %d" node round ]
  in
  let violation = match r.violation with None -> [] | Some m -> [ m ] in
  order @ violation @ flag
