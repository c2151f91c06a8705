module Network = Mincut_congest.Network

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

let check ~run ~diff =
  let first = run () in
  let second = run () in
  match diff first second with [] -> Ok first | diffs -> Error diffs
