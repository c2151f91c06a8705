module Network = Mincut_congest.Network
module Cost = Mincut_congest.Cost
module Api = Mincut_core.Api
module One_respect = Mincut_core.One_respect

type 'a outcome = ('a, string list) result

let diff_named ~name ~equal a b = if equal a b then [] else [ name ^ " differs" ]

let diff_int name a b =
  if Int.equal a b then [] else [ Printf.sprintf "%s: %d vs %d" name a b ]

let diff_audits (a : Network.audit) (b : Network.audit) =
  List.concat
    [
      diff_int "rounds" a.Network.rounds b.Network.rounds;
      diff_int "total_messages" a.Network.total_messages b.Network.total_messages;
      diff_int "total_words" a.Network.total_words b.Network.total_words;
      diff_int "max_words" a.Network.max_words b.Network.max_words;
      diff_int "max_edge_load" a.Network.max_edge_load b.Network.max_edge_load;
      diff_int "max_edge_words" a.Network.max_edge_words b.Network.max_edge_words;
      (let pa = a.Network.messages_per_round and pb = b.Network.messages_per_round in
       if Array.length pa <> Array.length pb then
         [
           Printf.sprintf "messages_per_round: %d rounds vs %d" (Array.length pa)
             (Array.length pb);
         ]
       else
         let diffs = ref [] in
         Array.iteri
           (fun r va ->
             if not (Int.equal va pb.(r)) then
               diffs :=
                 Printf.sprintf "messages_per_round[%d]: %d vs %d" r va pb.(r)
                 :: !diffs)
           pa;
         List.rev !diffs);
    ]

let diff_breakdown =
  diff_named ~name:"breakdown"
    ~equal:(List.equal (fun (la, ra) (lb, rb) -> String.equal la lb && ra = rb))

let diff_spans = diff_named ~name:"span tree (provenance included)" ~equal:Cost.equal

let diff_summary (a : Api.summary) (b : Api.summary) =
  List.concat
    [
      diff_int "value" a.Api.value b.Api.value;
      diff_int "rounds" a.Api.rounds b.Api.rounds;
      diff_named ~name:"side" ~equal:Mincut_util.Bitset.equal a.Api.side b.Api.side;
      diff_breakdown a.Api.breakdown b.Api.breakdown;
      diff_spans a.Api.cost b.Api.cost;
    ]

let diff_one_respect (a : One_respect.result) (b : One_respect.result) =
  List.concat
    [
      diff_int "best_value" a.One_respect.best_value b.One_respect.best_value;
      diff_int "best_node" a.One_respect.best_node b.One_respect.best_node;
      diff_named ~name:"cuts" ~equal:(Array.for_all2 Int.equal) a.One_respect.cuts
        b.One_respect.cuts;
      diff_int "cost.rounds" a.One_respect.cost.Cost.rounds b.One_respect.cost.Cost.rounds;
      diff_breakdown
        (Cost.breakdown a.One_respect.cost)
        (Cost.breakdown b.One_respect.cost);
      diff_spans a.One_respect.cost b.One_respect.cost;
    ]

let check ~run ~diff =
  let first = run () in
  let second = run () in
  match diff first second with [] -> Ok first | diffs -> Error diffs
