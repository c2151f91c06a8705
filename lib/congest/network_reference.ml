(* The seed (pre-CSR) driver, preserved as a baseline: list
   mailboxes with a per-node inbox sort, a per-round Hashtbl for the
   directed-edge word counters, and per-run neighbor hash tables.  The
   flat-array driver in [Network] must stay bit-identical to this one —
   [test_congest] diffs full audits on the lint workloads, and the [sim]
   bench reports the rounds/sec ratio between the two. *)

module Graph = Mincut_graph.Graph

let violate ?sender ?receiver ?words ?budget kind ~round =
  raise
    (Network.Model_violation
       { Network.kind; round; sender; receiver; words; budget })

let neighbor_sets g =
  Array.init (Graph.n g) (fun v ->
      let tbl = Hashtbl.create (Graph.degree g v) in
      Graph.iter_adj g v (fun u _ -> Hashtbl.replace tbl u ());
      tbl)

let run ?(cfg = Config.default) ~words g (prog : _ Network.program) =
  let n = Graph.n g in
  let neighbors = neighbor_sets g in
  let states = Array.init n prog.Network.initial in
  let inboxes : (int * _) list array = Array.make n [] in
  let pending = ref false in
  let total_messages = ref 0 in
  let total_words = ref 0 in
  let per_round = ref [] in
  let max_words = ref 0 in
  let max_edge_words = ref 0 in
  (* per-run channel loads, for the true max_edge_load *)
  let edge_loads : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let round = ref 0 in
  let all_halted () =
    let rec go v = v >= n || (prog.Network.halted states.(v) && go (v + 1)) in
    go 0
  in
  while not (all_halted () && not !pending) do
    if !round >= cfg.Config.max_rounds then
      violate Network.Watchdog ~round:!round ~budget:cfg.Config.max_rounds;
    let next : (int * _) list array = Array.make n [] in
    (* words in flight per directed edge this round; doubles as the
       duplicate-send registry *)
    let edge_words : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    let sent_count = ref 0 in
    pending := false;
    for v = 0 to n - 1 do
      if not (prog.Network.halted states.(v)) then begin
        let inbox = List.sort (fun (a, _) (b, _) -> Int.compare a b) inboxes.(v) in
        let state', outs = prog.Network.step ~node:v ~round:!round ~inbox states.(v) in
        states.(v) <- state';
        List.iter
          (fun (dst, payload) ->
            if not (Hashtbl.mem neighbors.(v) dst) then
              violate Network.Non_neighbor_send ~round:!round ~sender:v ~receiver:dst;
            if Hashtbl.mem edge_words (v, dst) then
              violate Network.Duplicate_send ~round:!round ~sender:v ~receiver:dst;
            let w = words payload in
            if w > cfg.Config.words_per_message then
              violate Network.Oversized_message ~round:!round ~sender:v ~receiver:dst
                ~words:w ~budget:cfg.Config.words_per_message;
            let load =
              w + (match Hashtbl.find_opt edge_words (v, dst) with
                  | Some prior -> prior
                  | None -> 0)
            in
            Hashtbl.replace edge_words (v, dst) load;
            incr total_messages;
            incr sent_count;
            total_words := !total_words + w;
            max_words := max !max_words w;
            max_edge_words := max !max_edge_words load;
            Hashtbl.replace edge_loads (v, dst)
              (1 + (match Hashtbl.find_opt edge_loads (v, dst) with
                   | Some c -> c
                   | None -> 0));
            next.(dst) <- (v, payload) :: next.(dst);
            pending := true)
          outs
      end
    done;
    Array.blit next 0 inboxes 0 n;
    per_round := !sent_count :: !per_round;
    incr round
  done;
  let max_edge_load = Hashtbl.fold (fun _ c acc -> max c acc) edge_loads 0 in
  let audit =
    {
      Network.rounds = !round;
      total_messages = !total_messages;
      total_words = !total_words;
      max_words = !max_words;
      max_edge_load;
      max_edge_words = !max_edge_words;
      messages_per_round = Array.of_list (List.rev !per_round);
    }
  in
  (states, audit)
