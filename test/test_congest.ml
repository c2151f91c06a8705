open Test_helpers
module Network = Mincut_congest.Network
module Config = Mincut_congest.Config
module Cost = Mincut_congest.Cost
module Pipeline = Mincut_congest.Pipeline
module Primitives = Mincut_congest.Primitives
module Diameter = Mincut_graph.Diameter

let words1 _ = 1

let audit_of cost = Option.get (Cost.leaf_audit cost)

(* trivial program: every node sends its id to all neighbors once and
   collects round-1 inbox *)
type hello = { sent : bool; seen : int list; rounds_alive : int }

let hello_program g : (hello, int) Network.program =
  {
    initial = (fun _ -> { sent = false; seen = []; rounds_alive = 0 });
    step =
      (fun ~node ~round:_ ~inbox st ->
        let seen = List.map fst inbox @ st.seen in
        if not st.sent then
          ( { sent = true; seen; rounds_alive = st.rounds_alive + 1 },
            List.map (fun (u, _) -> (u, node)) (adj_list g node) )
        else ({ st with seen; rounds_alive = st.rounds_alive + 1 }, []))
      ;
    halted = (fun st -> st.sent && st.rounds_alive >= 2);
  }

let test_engine_delivers_neighbors () =
  let g = Generators.ring 5 in
  let states, audit = Network.run ~result:keep_state ~words:words1 g (hello_program g) in
  Array.iteri
    (fun v st ->
      let expected = List.sort compare (List.map fst (adj_list g v)) in
      check_bool
        (Printf.sprintf "node %d heard both neighbors" v)
        true
        (List.sort compare st.seen = expected))
    states;
  check_int "messages = 2m" (2 * Graph.m g) audit.Network.total_messages

(* Run a thunk expected to break the model and hand back the violation
   with its provenance. *)
let expect_violation name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Model_violation, none raised" name
  | exception Network.Model_violation v -> v

let check_opt name expected got =
  check_bool name true (got = expected)

let test_engine_rejects_non_neighbor () =
  let g = Generators.path 3 in
  let prog : (bool, int) Network.program =
    {
      initial = (fun _ -> false);
      step = (fun ~node ~round:_ ~inbox:_ _ -> if node = 0 then (true, [ (2, 0) ]) else (true, []));
      halted = (fun b -> b);
    }
  in
  let v =
    expect_violation "non-neighbor" (fun () -> Network.run ~result:keep_state ~words:words1 g prog)
  in
  check_bool "kind" true (v.Network.kind = Network.Non_neighbor_send);
  check_int "round" 0 v.Network.round;
  check_opt "sender" (Some 0) v.Network.sender;
  check_opt "receiver" (Some 2) v.Network.receiver;
  check_bool "message names rule" true
    (String.length (Network.violation_message v) > 0)

let test_engine_rejects_duplicate_send () =
  let g = Generators.path 2 in
  let prog : (bool, int) Network.program =
    {
      initial = (fun _ -> false);
      step =
        (fun ~node ~round:_ ~inbox:_ _ ->
          if node = 0 then (true, [ (1, 0); (1, 1) ]) else (true, []));
      halted = (fun b -> b);
    }
  in
  let v =
    expect_violation "duplicate" (fun () -> Network.run ~result:keep_state ~words:words1 g prog)
  in
  check_bool "kind" true (v.Network.kind = Network.Duplicate_send);
  check_opt "sender" (Some 0) v.Network.sender;
  check_opt "receiver" (Some 1) v.Network.receiver

let test_engine_rejects_oversized () =
  let g = Generators.path 2 in
  let prog : (bool, int) Network.program =
    {
      initial = (fun _ -> false);
      step = (fun ~node ~round:_ ~inbox:_ _ -> if node = 0 then (true, [ (1, 0) ]) else (true, []));
      halted = (fun b -> b);
    }
  in
  let v =
    expect_violation "oversized" (fun () ->
        Network.run ~result:keep_state ~cfg:(Config.with_budget 2) ~words:(fun _ -> 3) g prog)
  in
  check_bool "kind" true (v.Network.kind = Network.Oversized_message);
  check_opt "measured words" (Some 3) v.Network.words;
  check_opt "violated budget" (Some 2) v.Network.budget;
  check_opt "sender" (Some 0) v.Network.sender

let test_engine_rejects_self_send () =
  let g = Generators.path 3 in
  let prog : (bool, int) Network.program =
    {
      initial = (fun _ -> false);
      step = (fun ~node ~round:_ ~inbox:_ _ -> if node = 1 then (true, [ (1, 0) ]) else (true, []));
      halted = (fun b -> b);
    }
  in
  let v =
    expect_violation "self send" (fun () -> Network.run ~result:keep_state ~words:words1 g prog)
  in
  check_bool "kind" true (v.Network.kind = Network.Non_neighbor_send);
  check_opt "sender = receiver" v.Network.sender v.Network.receiver

let test_engine_watchdog () =
  let g = Generators.path 2 in
  let prog : (unit, int) Network.program =
    {
      initial = (fun _ -> ());
      step = (fun ~node:_ ~round:_ ~inbox:_ () -> ((), []));
      halted = (fun () -> false);
    }
  in
  let v =
    expect_violation "watchdog" (fun () ->
        Network.run ~result:keep_state
          ~cfg:{ Config.default with Config.max_rounds = 10 }
          ~words:words1 g prog)
  in
  check_bool "kind" true (v.Network.kind = Network.Watchdog);
  check_opt "no sender" None v.Network.sender;
  check_opt "round limit as budget" (Some 10) v.Network.budget;
  check_int "round" 10 v.Network.round

(* Node 0 keeps its state and acts at round 5 on an empty inbox: it
   reads the round as a timer, against the contract on [program.step].
   The plain engine sleeps it from round 1 on, so it never sends;
   sanitize mode steps it anyway and names the node and the round. *)
let test_sanitize_catches_round_timer () =
  let g = Generators.path 3 in
  let prog : (bool, int) Network.program =
    {
      initial = (fun _ -> false);
      step =
        (fun ~node ~round ~inbox:_ sent ->
          if node = 0 && round = 5 then (true, [ (1, 0) ]) else (sent, []));
      halted = (fun _ -> false);
    }
  in
  let _, audit = Network.run_bounded ~result:keep_state ~words:words1 ~rounds:8 g prog in
  check_int "plain engine: the sleeper never acts" 0 audit.Network.total_messages;
  let v =
    expect_violation "round timer" (fun () ->
        Network.run_bounded ~result:keep_state ~cfg:(Config.sanitized Config.default)
          ~words:words1 ~rounds:8 g
          prog)
  in
  check_bool "kind" true (v.Network.kind = Network.Round_dependence);
  check_int "round" 5 v.Network.round;
  check_opt "sender" (Some 0) v.Network.sender;
  let msg = Network.violation_message v in
  check_bool "message names node and round" true
    (String.length msg > 16 && String.sub msg 0 16 = "round 5: node 0 ")

(* Every edge of [g] twice: each channel then has two parallel CSR
   slots, and the engine must always settle on the first. *)
let doubled g =
  let es = Array.map (fun (e : Graph.edge) -> (e.u, e.v, e.w)) (Graph.edges g) in
  Graph.of_array ~n:(Graph.n g) (Array.append es es)

let test_duplicate_send_with_warm_memo () =
  (* node 0 reaches node 1 alone in rounds 0 and 1, so both remembered
     slots sit on the channel; in round 2 it sends to node 1 twice *)
  let g = doubled (Generators.torus 4 4) in
  let prog : (int, int) Network.program =
    {
      initial = (fun _ -> 0);
      step =
        (fun ~node ~round:_ ~inbox:_ k ->
          if node <> 0 then (k, [])
          else (k + 1, if k < 2 then [ (1, k) ] else [ (1, k); (1, k) ]));
      halted = (fun _ -> false);
    }
  in
  let v =
    expect_violation "duplicate" (fun () ->
        Network.run_bounded ~result:keep_state ~words:words1 ~rounds:5 g prog)
  in
  check_bool "kind" true (v.Network.kind = Network.Duplicate_send);
  check_int "round" 2 v.Network.round;
  check_opt "sender" (Some 0) v.Network.sender;
  check_opt "receiver" (Some 1) v.Network.receiver

let test_stale_memo_never_hides_a_duplicate () =
  (* the channel memo outlives a call: on the triangle node 0 last sends
     on its second slot and node 2 reaches node 1 on its second slot;
     on three parallel 0-1 edges both remembered slots then lie in or
     past the channel, and neither may stand in for its first slot *)
  let send_once sends : (bool, int) Network.program =
    {
      initial = (fun _ -> false);
      step = (fun ~node ~round:_ ~inbox:_ _ -> (true, List.assoc node sends));
      halted = (fun b -> b);
    }
  in
  ignore
    (Network.run ~result:keep_state ~words:words1 (Generators.complete 3)
       (send_once [ (0, [ (2, 0) ]); (1, []); (2, [ (1, 0) ]) ]));
  let triple = Graph.of_array ~n:2 [| (0, 1, 1); (0, 1, 1); (0, 1, 1) |] in
  let v =
    expect_violation "duplicate" (fun () ->
        Network.run ~result:keep_state ~words:words1 triple
          (send_once [ (0, [ (1, 0); (1, 1) ]); (1, []) ]))
  in
  check_bool "kind" true (v.Network.kind = Network.Duplicate_send);
  check_opt "sender" (Some 0) v.Network.sender;
  check_opt "receiver" (Some 1) v.Network.receiver

let test_engine_strict_edge_overload () =
  (* one word per message passes the lenient per-message budget but two
     messages never cross one edge in one round, so the only way to trip
     Edge_overload is a payload that fits words_per_message yet exceeds
     the strict per-edge cap *)
  let g = Generators.path 2 in
  let prog : (bool, int) Network.program =
    {
      initial = (fun _ -> false);
      step = (fun ~node ~round:_ ~inbox:_ _ -> if node = 0 then (true, [ (1, 0) ]) else (true, []));
      halted = (fun b -> b);
    }
  in
  (* lenient run with 3-word payloads is fine under the default budget *)
  let _, audit = Network.run ~result:keep_state ~words:(fun _ -> 3) g prog in
  check_int "lenient max_edge_words" 3 audit.Network.max_edge_words;
  let v =
    expect_violation "edge overload" (fun () ->
        Network.run ~result:keep_state
          ~cfg:(Config.strict ~budget:2 Config.default)
          ~words:(fun _ -> 3) g prog)
  in
  check_bool "kind" true (v.Network.kind = Network.Edge_overload);
  check_opt "aggregate words" (Some 3) v.Network.words;
  check_opt "edge cap" (Some 2) v.Network.budget;
  check_opt "sender" (Some 0) v.Network.sender;
  check_opt "receiver" (Some 1) v.Network.receiver

let test_strict_rejects_bad_budget () =
  check_bool "non-positive cap" true
    (try
       ignore (Config.strict ~budget:0 Config.default);
       false
     with Invalid_argument _ -> true)

let test_bfs_tree_real () =
  List.iter
    (fun (name, g) ->
      let tree, cost = Primitives.bfs_tree g ~root:0 in
      let r = Bfs.run g ~source:0 in
      check_bool (name ^ " depths match bfs") true (tree.Tree.depth = r.Bfs.dist);
      let ecc = Array.fold_left max 0 r.Bfs.dist in
      check_bool
        (Printf.sprintf "%s rounds %d ~ ecc %d" name cost.Cost.rounds ecc)
        true
        (cost.Cost.rounds >= ecc && cost.Cost.rounds <= ecc + 3))
    (small_connected_graphs ())

let test_bfs_tree_disconnected () =
  (* two paths: the flood from 0 never reaches the second one, whose
     nodes would never halt *)
  let g = Graph.create ~n:6 [ (0, 1, 1); (1, 2, 1); (3, 4, 1); (4, 5, 2) ] in
  match Primitives.bfs_tree g ~root:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on a disconnected graph"

let test_convergecast_sum_real () =
  List.iter
    (fun (name, g) ->
      let tree, _ = Primitives.bfs_tree g ~root:0 in
      let values = Array.init (Graph.n g) (fun v -> v + 1) in
      let total, cost = Primitives.convergecast_sum g ~tree ~values in
      let n = Graph.n g in
      check_int (name ^ " sum") (n * (n + 1) / 2) total;
      check_bool (name ^ " rounds ~ height") true
        (cost.Cost.rounds <= Tree.height tree + 2))
    (small_connected_graphs ())

let test_broadcast_items_real () =
  List.iter
    (fun (name, g) ->
      let tree, _ = Primitives.bfs_tree g ~root:0 in
      let items = Array.init 7 (fun i -> 100 + i) in
      let per_node, cost = Primitives.broadcast_items g ~tree ~items in
      Array.iteri
        (fun v got -> check_bool (Printf.sprintf "%s node %d got all" name v) true (got = items))
        per_node;
      (* pipelining: depth + k, not depth * k *)
      let bound = Pipeline.broadcast ~depth:(Tree.height tree) ~items:7 + 2 in
      check_bool
        (Printf.sprintf "%s rounds %d <= pipeline bound %d" name cost.Cost.rounds bound)
        true (cost.Cost.rounds <= bound))
    (small_connected_graphs ())

let test_broadcast_empty () =
  let g = Generators.path 3 in
  let tree, _ = Primitives.bfs_tree g ~root:0 in
  let _, cost = Primitives.broadcast_items g ~tree ~items:[||] in
  check_int "no items, no rounds" 0 cost.Cost.rounds

let test_upcast_distinct_real () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let tree, _ = Primitives.bfs_tree g ~root:0 in
      (* every node holds its own id; root must collect all *)
      let initial = Array.init n (fun v -> [ v ]) in
      let collected, cost = Primitives.upcast_distinct g ~tree ~initial in
      check_bool (name ^ " collected all ids") true (collected = List.init n (fun i -> i));
      let bound = Pipeline.upcast ~depth:(Tree.height tree) ~items:n + 2 in
      check_bool (name ^ " pipelined") true (cost.Cost.rounds <= bound))
    (small_connected_graphs ())

let test_upcast_with_duplicates () =
  let g = Generators.path 6 in
  let tree, _ = Primitives.bfs_tree g ~root:0 in
  let initial = Array.make 6 [ 42; 7 ] in
  let collected, _ = Primitives.upcast_distinct g ~tree ~initial in
  check_bool "dedup" true (collected = [ 7; 42 ])

let test_flood_max_real () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let values = Array.init n (fun v -> (v * 13) mod 17) in
      let maxv = Array.fold_left max min_int values in
      let learned, _ = Primitives.flood_max g ~values in
      Array.iteri
        (fun v got -> check_int (Printf.sprintf "%s node %d max" name v) maxv got)
        learned)
    (small_connected_graphs ())

let test_engine_deterministic () =
  let g = Generators.gnp_connected ~rng:(Mincut_util.Rng.create 12) 24 0.3 in
  let run () =
    let tree, cost = Primitives.bfs_tree g ~root:0 in
    let total, c2 = Primitives.convergecast_sum g ~tree ~values:(Array.make 24 3) in
    (tree.Tree.parent, cost.Cost.rounds, total, c2.Cost.rounds)
  in
  check_bool "bitwise identical reruns" true (run () = run ())

let test_congestion_profile () =
  let g = Generators.grid 5 5 in
  let audit = audit_of (snd (Primitives.bfs_tree g ~root:0)) in
  let profile = audit.Network.messages_per_round in
  check_int "profile length = rounds" audit.Network.rounds (Array.length profile);
  check_int "profile sums to total" audit.Network.total_messages
    (Array.fold_left ( + ) 0 profile);
  (* flooding: traffic starts at round 0 and ends before the drain *)
  check_bool "round 0 active" true (profile.(0) > 0);
  check_int "drain round is silent" 0 profile.(Array.length profile - 1)

let test_flood_echo () =
  List.iter
    (fun (name, g) ->
      let tree, cost = Primitives.flood_echo g ~root:0 in
      let ecc = Tree.height tree in
      check_bool
        (Printf.sprintf "%s echo rounds %d ~ 2*ecc %d" name cost.Cost.rounds (2 * ecc))
        true
        (cost.Cost.rounds >= ecc && cost.Cost.rounds <= (2 * ecc) + 6);
      check_int (name ^ " echo breakdown") 2 (List.length (Cost.breakdown cost)))
    (small_connected_graphs ())

let test_cost_algebra () =
  let open Cost in
  let a = scheduled "a" 3 ++ scheduled "b" 4 in
  check_int "sequential add" 7 a.rounds;
  check_int "breakdown entries" 2 (List.length (breakdown a));
  let p = scheduled "x" 10 in
  check_int "sum" 17 (sum [ a; p ]).rounds;
  check_int "zero" 0 zero.rounds

let test_pipeline_formulas () =
  check_int "broadcast" 12 (Pipeline.broadcast ~depth:5 ~items:7);
  check_int "broadcast none" 0 (Pipeline.broadcast ~depth:5 ~items:0);
  check_int "upcast" 9 (Pipeline.upcast ~depth:4 ~items:5);
  check_int "convergecast" 6 (Pipeline.convergecast ~depth:5 ~max_edge_load:1);
  check_int "exchange" 4 (Pipeline.exchange ~items:4)

let test_bits_per_word () =
  check_bool "log-ish" true (Config.bits_per_word ~n:1024 >= 10);
  check_bool "monotone" true (Config.bits_per_word ~n:2048 >= Config.bits_per_word ~n:1024)

module Reference = Mincut_congest.Network_reference
module Replay = Mincut_analysis.Replay

let replay_graphs () =
  [
    ("torus4", Generators.torus 4 4);
    ("grid5", Generators.grid 5 5);
    ("gnp24", Generators.gnp_connected ~rng:(Mincut_util.Rng.create 12) 24 0.3);
  ]

let test_max_edge_load_pipelined () =
  (* pipelined broadcast pushes one item per round down every tree edge:
     with 7 items each parent->child channel carries exactly 7 messages
     over the run — the per-channel congestion max_edge_load measures *)
  let g = Generators.path 4 in
  let tree, _ = Primitives.bfs_tree g ~root:0 in
  let items = Array.init 7 (fun i -> 100 + i) in
  let audit = audit_of (snd (Primitives.broadcast_items g ~tree ~items)) in
  check_int "7 messages per channel" 7 audit.Network.max_edge_load;
  check_int "one word per round per channel" 1 audit.Network.max_edge_words

let test_max_edge_load_single_shot () =
  let g = Generators.ring 5 in
  let _, audit = Network.run ~result:keep_state ~words:words1 g (hello_program g) in
  check_int "hello uses each channel once" 1 audit.Network.max_edge_load

(* A flood that counts arrivals: the root announces itself in round 0,
   every node forwards once on its first arrival, and halts after two
   arrivals (one if it has a single neighbor).  Waiting nodes return
   their state physically unchanged, the engine's O(1) idle path, and
   most nodes halt while later arrivals are still addressed to them, so
   the engine must drop that mail exactly as the reference does. *)
type tally = { hits : int; need : int; first : int }

let tally_program g : (tally, int) Network.program =
  let nbrs v = List.sort_uniq Int.compare (List.map fst (adj_list g v)) in
  let flood node x = List.map (fun u -> (u, x)) (nbrs node) in
  {
    initial = (fun v -> { hits = 0; need = min 2 (List.length (nbrs v)); first = -1 });
    step =
      (fun ~node ~round ~inbox st ->
        if node = 0 && round = 0 then ({ st with hits = 1; first = 0 }, flood node 0)
        else
          match inbox with
          | [] -> (st, [])
          | _ ->
              let hits = st.hits + List.length inbox in
              if st.first = -1 then ({ st with hits; first = round }, flood node round)
              else ({ st with hits }, []));
    halted = (fun st -> st.hits >= st.need);
  }

(* A token walks the path 0 -> n-1, one hop per round, from round 1:
   every node idles in round 0, which the contract lets a program treat
   specially, so no node may sleep before round 1.  Node v then sleeps
   until the token reaches it in round v + 1, so most nodes sleep for
   many rounds before their mail arrives.  With [halt] a node halts
   once it has passed the token on; without, it goes back to sleep. *)
let walk_program ~halt n : (int, int) Network.program =
  {
    initial = (fun _ -> -1);
    step =
      (fun ~node ~round ~inbox hops ->
        match inbox with
        | (_, h) :: _ -> (h, if node + 1 < n then [ (node + 1, h + 1) ] else [])
        | [] ->
            if node = 0 && round <> 0 && hops < 0 then (0, if n > 1 then [ (1, 1) ] else [])
            else (hops, []));
    halted = (fun hops -> halt && hops >= 0);
  }

(* Node 0 sends to node 1 every round without changing its state: a
   step that sends is not idle, so the sender must never sleep. *)
let beacon_program : (unit, int) Network.program =
  {
    initial = (fun _ -> ());
    step = (fun ~node ~round:_ ~inbox:_ () -> ((), if node = 0 then [ (1, 0) ] else []));
    halted = (fun () -> false);
  }

(* [Network.run_bounded] as the reference driver's [run]: a round
   counter halts every node after [rounds] steps, and the completion
   time is the delivery round of the last message. *)
let reference_bounded ?cfg ~words ~rounds g (prog : (_, _) Network.program) =
  let counted : (_, _) Network.program =
    {
      initial = (fun v -> (0, prog.initial v));
      step =
        (fun ~node ~round ~inbox (r, st) ->
          let st', outs = prog.step ~node ~round ~inbox st in
          ((r + 1, st'), outs));
      halted = (fun (r, st) -> r >= rounds || prog.halted st);
    }
  in
  let states, audit = Reference.run ?cfg ~words g counted in
  let profile = audit.Network.messages_per_round in
  let per_round = Array.init rounds (fun i -> if i < Array.length profile then profile.(i) else 0) in
  let last = ref (-1) in
  Array.iteri (fun i c -> if c > 0 then last := i) per_round;
  ( Array.map snd states,
    {
      audit with
      Network.rounds = (if !last < 0 then 0 else !last + 2);
      messages_per_round = per_round;
    } )

let test_driver_matches_reference () =
  (* the flat-array driver and the preserved seed driver must agree on
     states and on the full audit, workload by workload and program by
     program *)
  let same name (states_a, audit_a) (states_b, audit_b) =
    check_bool (name ^ ": audits equal") true (Replay.diff_audits audit_a audit_b = []);
    check_bool (name ^ ": states equal") true (states_a = states_b)
  in
  let unbounded name ~words g prog =
    same name (Network.run ~result:keep_state ~words g prog) (Reference.run ~words g prog)
  in
  let bounded name ~words ~rounds g prog =
    same name
      (Network.run_bounded ~result:keep_state ~words ~rounds g prog)
      (reference_bounded ~words ~rounds g prog)
  in
  (* the forest programs on one forest: convergecast, a three-item
     broadcast from every root, and an upcast of ids held by several
     nodes at once *)
  let forest_programs name g (f : Primitives.forest) ~height =
    let n = Graph.n g in
    let values = Array.init n (fun v -> (v * 7 mod 31) + 1) in
    let initial = Array.init n (fun v -> if v mod 4 = 0 then [ v mod 5; v ] else []) in
    let k = List.length (List.sort_uniq Int.compare (List.concat (Array.to_list initial))) in
    unbounded (name ^ " convergecast") ~words:(fun _ -> 2) g
      (Primitives.convergecast_program f ~combine:( + ) ~values);
    unbounded (name ^ " broadcast") ~words:words1 g
      (Primitives.broadcast_program f ~k:3 ~item:(fun r i -> (3 * r) + i));
    bounded (name ^ " upcast") ~words:words1 ~rounds:(height + k + 2) g
      (Primitives.upcast_program f ~initial:(Array.get initial))
  in
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let tree = Mincut_graph.Tree.bfs_tree g ~root:0 in
      let height = Mincut_graph.Tree.height tree in
      let values = Array.init n (fun v -> (v * 7 mod 31) + 1) in
      unbounded (name ^ " bfs") ~words:words1 g (Primitives.bfs_program g ~root:0);
      unbounded (name ^ " tally") ~words:words1 g (tally_program g);
      forest_programs name g (Primitives.forest_of_tree tree) ~height;
      bounded (name ^ " flood-max") ~words:words1 ~rounds:((2 * height) + 2) g
        (Primitives.flood_max_program g ~values);
      (* past the last message: the tail rounds carry no traffic *)
      bounded (name ^ " tally bounded") ~words:words1 ~rounds:(n + 3) g (tally_program g);
      (* many roots: the Kutten-Peleg fragment forests of the BFS tree,
         as Steps 2a and 3 run them (gnp24's tree is too shallow to
         split at height 3, hence also height 1), and the fragment-id
         exchange of Boruvka's step A *)
      List.iter
        (fun target ->
          let fr = Mincut_mst.Fragments.partition tree ~target in
          let label = Printf.sprintf "%s fragments@%d" name target in
          let links = Mincut_core.One_respect.frag_links tree fr in
          let maxh = Mincut_mst.Fragments.max_height fr in
          check_bool (label ^ ": several roots") true
            (target = 3 || Mincut_mst.Fragments.count fr > 1);
          forest_programs label g links ~height:maxh;
          (* Step 2b: a node sleeps between the ids it forwards *)
          bounded (label ^ " ancestor downcast") ~words:words1 ~rounds:((2 * maxh) + 3) g
            (Mincut_core.One_respect.ancestor_downcast_program tree links fr);
          unbounded (label ^ " exchange") ~words:words1 g
            (Primitives.exchange_program g ~values:fr.Mincut_mst.Fragments.frag_of))
        [ 3; 1 ])
    (* the multigraph gives every channel two parallel slots *)
    (replay_graphs () @ [ ("torus4x2", doubled (Generators.torus 4 4)) ]);
  (* late wakes: the walk leaves nodes asleep for up to 39 rounds *)
  let path = Generators.path 40 in
  unbounded "walk" ~words:words1 path (walk_program ~halt:true 40);
  bounded "walk bounded" ~words:words1 ~rounds:46 path (walk_program ~halt:false 40);
  bounded "beacon" ~words:words1 ~rounds:6 path beacon_program

(* A flood in which a node halts in the step it forwards: the root in
   round 0, every other node on its first mail.  It floods back to its
   senders too, so most of its mail reaches nodes that have halted. *)
let burst_program g : (bool, int) Network.program =
  let nbrs v = List.sort_uniq Int.compare (List.map fst (adj_list g v)) in
  let flood node = List.map (fun u -> (u, node)) (nbrs node) in
  {
    initial = (fun _ -> false);
    step =
      (fun ~node ~round ~inbox fired ->
        match inbox with
        | [] when not (node = 0 && round = 0) -> (fired, [])
        | _ -> (true, flood node));
    halted = Fun.id;
  }

(* A path with chords [v, v + 31] from every fifth node, so mail crosses
   the 32-node words of the engine's active set in both directions *)
let word_edge_graph n =
  Graph.create ~n
    (List.init (max 0 (n - 1)) (fun v -> (v, v + 1, 1))
    @ List.filter_map
        (fun v -> if v mod 5 = 0 && v + 31 < n then Some (v, v + 31, 1) else None)
        (List.init n Fun.id))

let test_engine_bitset_word_edges () =
  (* the active set keeps 32 nodes to a word: at and around every word
     boundary the engine must visit exactly the nodes the reference
     driver steps, in plain and sanitize mode alike *)
  List.iter
    (fun n ->
      let g = word_edge_graph n in
      List.iter
        (fun (mode, cfg) ->
          let same name (states_a, audit_a) (states_b, audit_b) =
            let label = Printf.sprintf "n=%d %s %s" n mode name in
            check_bool (label ^ ": audits equal") true (audit_a = audit_b);
            check_bool (label ^ ": states equal") true (states_a = states_b)
          in
          let unbounded name prog =
            same name
              (Network.run ~cfg ~result:keep_state ~words:words1 g prog)
              (Reference.run ~cfg ~words:words1 g prog)
          in
          unbounded "walk" (walk_program ~halt:true n);
          unbounded "burst" (burst_program g);
          unbounded "tally" (tally_program g);
          let rounds = n + 6 in
          same "walk bounded"
            (Network.run_bounded ~cfg ~result:keep_state ~words:words1 ~rounds g
               (walk_program ~halt:false n))
            (reference_bounded ~cfg ~words:words1 ~rounds g (walk_program ~halt:false n)))
        [ ("plain", Config.default); ("sanitized", Config.sanitized Config.default) ])
    [ 1; 31; 32; 33; 63; 64; 65; 257 ]

let test_seed_driver_goldens () =
  (* audits recorded from the pre-rewrite driver on the lint replay
     workloads; any driver change that shifts these numbers is a
     semantics change, not an optimisation *)
  let expect =
    [
      ("torus4", 6, 64, [| 4; 16; 24; 16; 4; 0 |]);
      ("grid5", 10, 80, [| 2; 6; 10; 14; 16; 14; 10; 6; 2; 0 |]);
      ("gnp24", 4, 178, [| 8; 69; 101; 0 |]);
    ]
  in
  List.iter2
    (fun (name, g) (name', rounds, msgs, per_round) ->
      check_bool "tables aligned" true (String.equal name name');
      let audit = audit_of (snd (Primitives.bfs_tree g ~root:0)) in
      check_int (name ^ " rounds") rounds audit.Network.rounds;
      check_int (name ^ " messages") msgs audit.Network.total_messages;
      check_int (name ^ " words") msgs audit.Network.total_words;
      check_int (name ^ " max payload") 1 audit.Network.max_words;
      check_int (name ^ " max edge load") 1 audit.Network.max_edge_load;
      check_int (name ^ " max edge words") 1 audit.Network.max_edge_words;
      check_bool (name ^ " profile") true
        (audit.Network.messages_per_round = per_round))
    (replay_graphs ()) expect

(* Parent-recorded digests of the shipped primitives on the replay
   graphs: each digest covers the primitive's answer and its [Cost] JSON,
   engine audit included (rounds, message and word totals, per-edge
   loads, the per-round profile).  The forest programs replaced the
   per-tree ones with these digests unchanged; a program that sends one
   message more or one round later moves them. *)
let cost_digest parts cost =
  String.concat "|" (parts @ [ Mincut_util.Json.to_string (Cost.to_json cost) ])
  |> Digest.string |> Digest.to_hex

let ints a = String.concat "," (List.map string_of_int (Array.to_list a))

(* each node's least-id edge to its tree parent, -1 at the root: on a
   multigraph this pins which parallel edge a tree's digest names *)
let parent_edges g (tree : Tree.t) =
  Array.mapi
    (fun v p ->
      if p = -1 then -1
      else
        List.fold_left
          (fun best (x, id) -> if x = p && (best = -1 || id < best) then id else best)
          (-1) (adj_list g v))
    tree.Tree.parent

let golden_primitives =
  [
    ("torus4 convergecast", "1d21a3fc3a917caf3d93fe8377f6018a");
    ("torus4 broadcast", "1c2e5dcd9300fb584a2bc8303799ff54");
    ("torus4 upcast", "f0a6ae7e8e4c121f3c5db251628d4b80");
    ("torus4 echo", "6cd7b93cbc4d9a54ecce207b34d567e0");
    ("grid5 convergecast", "7a75424d0f67988f99b3799d384ff430");
    ("grid5 broadcast", "3431196abe92b67734d2e2a923fa880f");
    ("grid5 upcast", "fbe6a2f1cdc5f4074db9d71523c27fe6");
    ("grid5 echo", "90d1a78f03a306889b0eb76f46159727");
    ("gnp24 convergecast", "0e59f72e294be878912e468d37dc0e2b");
    ("gnp24 broadcast", "7c0c7fa2f7c149489870101cf7bbccd5");
    ("gnp24 upcast", "a670c622a35c3adcf8c24dbf9093d75a");
    ("gnp24 echo", "f5cb123d21832318972bf0d2feb270ac");
  ]

let test_primitive_goldens () =
  let got =
    List.concat_map
      (fun (name, g) ->
        let n = Graph.n g in
        let tree, _ = Primitives.bfs_tree g ~root:0 in
        let values = Array.init n (fun v -> (v * 7 mod 31) + 1) in
        let total, c_cc = Primitives.convergecast_sum g ~tree ~values in
        let per_node, c_bc =
          Primitives.broadcast_items g ~tree ~items:(Array.init 7 (fun i -> 100 + i))
        in
        (* overlapping holdings: the same ids start at many nodes *)
        let initial = Array.init n (fun v -> [ v mod 5; 100 + (v * 3 mod 7) ]) in
        let items, c_up = Primitives.upcast_distinct g ~tree ~initial in
        let echo_tree, c_echo = Primitives.flood_echo g ~root:0 in
        [
          (name ^ " convergecast", cost_digest [ string_of_int total ] c_cc);
          ( name ^ " broadcast",
            cost_digest (Array.to_list (Array.map ints per_node)) c_bc );
          (name ^ " upcast", cost_digest [ ints (Array.of_list items) ] c_up);
          (name ^ " echo", cost_digest [ ints echo_tree.Tree.parent ] c_echo);
        ])
      (replay_graphs ())
  in
  Alcotest.(check (list (pair string string))) "primitive digests" golden_primitives got

(* Parent-recorded digests of the flooding primitives on multigraphs,
   where a node's CSR row holds parallel slots per neighbour and the
   floods must still address each neighbour once.  Each digest covers
   the answer and the [Cost] JSON with its engine audit. *)
let multigraphs () =
  let gnp = Generators.gnp_connected ~rng:(Mincut_util.Rng.create 12) 24 0.3 in
  (* every third edge tripled, the copies with other weights and with
     ids interleaved *)
  let tripled =
    List.concat_map
      (fun (e : Graph.edge) ->
        if e.id mod 3 = 0 then [ (e.v, e.u, e.w + 1); (e.u, e.v, e.w); (e.u, e.v, e.w + 2) ]
        else [ (e.u, e.v, e.w) ])
      (Array.to_list (Graph.edges gnp))
  in
  [ ("torus4x2", doubled (Generators.torus 4 4)); ("gnp24x3", Graph.create ~n:24 tripled) ]

let golden_multigraph_floods =
  [
    ("torus4x2 bfs", "589fe7a7a9cfbe3f0402f710261c3021");
    ("torus4x2 flood-max", "40769dd04f16ba2610226db9cee32b33");
    ("torus4x2 exchange", "d3595887255d19d60d24f9d1a64742ba");
    ("gnp24x3 bfs", "7b3bcf44f28ec8970e1bd43b39cdaa43");
    ("gnp24x3 flood-max", "7e58f945e4f208fb6a95b14bdfa6eb39");
    ("gnp24x3 exchange", "3977413301636508d0ea7a1bebc03d80");
  ]

let test_multigraph_flood_goldens () =
  let got =
    List.concat_map
      (fun (name, g) ->
        let n = Graph.n g in
        let tree, c_bfs = Primitives.bfs_tree g ~root:0 in
        let values = Array.init n (fun v -> (v * 7 mod 31) + 1) in
        let learned, c_fm = Primitives.flood_max g ~values in
        (* the caller's BFS tree sets the same bound as the flood's own *)
        let learned', c_fm' = Primitives.flood_max ~tree g ~values in
        check_bool (name ^ " flood-max on the caller's tree") true
          (learned = learned' && Cost.to_json c_fm = Cost.to_json c_fm');
        let heard, audit = Primitives.exchange ~words:words1 g (Array.init n (fun v -> 3 * v)) in
        let heard =
          Array.map (fun l -> ints (Array.of_list (List.concat_map (fun (s, x) -> [ s; x ]) l))) heard
        in
        [
          (name ^ " bfs", cost_digest [ ints tree.Tree.parent; ints (parent_edges g tree) ] c_bfs);
          (name ^ " flood-max", cost_digest [ ints learned ] c_fm);
          ( name ^ " exchange",
            cost_digest (Array.to_list heard)
              (Cost.executed ~audit "exchange" audit.Network.rounds) );
        ])
      (multigraphs ())
  in
  Alcotest.(check (list (pair string string))) "flood digests" golden_multigraph_floods got

(* Flood-max steps a node only when mail arrives (plus the step that
   puts it to sleep): on a 64-node path with one raised value the flood
   runs 2·63 + 2 rounds but steps O(messages + n) times, not once per
   node-round. *)
let test_flood_max_sleeps () =
  let n = 64 in
  let g = Generators.path n in
  let values = Array.init n (fun v -> if v = 0 then 1 else 0) in
  let steps = ref 0 in
  let probe ~node:_ ~round:_ ~inbox:_ _ _ = incr steps in
  let rounds = (2 * (n - 1)) + 2 in
  let _, audit =
    Network.run_bounded ~result:keep_state ~probe ~words:words1 ~rounds g
      (Primitives.flood_max_program g ~values)
  in
  let messages = audit.Network.total_messages in
  check_bool
    (Printf.sprintf "%d steps <= 2·%d messages + 2n" !steps messages)
    true
    (!steps <= (2 * messages) + (2 * n));
  check_bool "far below one step per node-round" true (4 * !steps < n * rounds)

let test_audit_word_budget_respected () =
  (* all primitives must fit the default 4-word budget *)
  let g = Generators.gnp_connected ~rng:(Mincut_util.Rng.create 2) 20 0.3 in
  let tree, _ = Primitives.bfs_tree g ~root:0 in
  let _, c1 = Primitives.convergecast_sum g ~tree ~values:(Array.make 20 5) in
  let _, c2 = Primitives.broadcast_items g ~tree ~items:[| 1; 2; 3 |] in
  check_bool "ran fine under budget" true (c1.Cost.rounds > 0 && c2.Cost.rounds > 0)

(* [exchange] sorts an inbox only when it arrives out of order.
   Sanitize mode replays every multi-message step with reversed and
   shuffled inboxes, so there the sort must still run: the run raises
   nothing and returns the inboxes and audit of the always-sort
   program. *)
let test_exchange_sanitized_matches_oracle () =
  let cfg = Config.sanitized Config.default in
  List.iter
    (fun (name, g) ->
      let values = Array.init (Graph.n g) (fun v -> (v * 5 mod 13) + 1) in
      let heard, audit = Primitives.exchange ~cfg ~words:words1 g values in
      let states, audit' =
        Network.run ~result:keep_state ~cfg ~words:words1 g (ref_exchange_program g ~values)
      in
      check_bool (name ^ " inboxes") true (heard = Array.map (Option.value ~default:[]) states);
      check_bool (name ^ " audit") true (audit = audit'))
    [
      ("gnp24", Generators.gnp_connected ~rng:(Mincut_util.Rng.create 12) 24 0.3);
      ("torus4x2", doubled (Generators.torus 4 4));
    ]

(* Every [Primitives] wrapper reduces the engine's final states as it
   hands them back.  On a graph over the 256-word line and one under
   it, the values must be what the raw program's states give (mapped
   here as the wrappers used to map them, or recomputed sequentially
   where the state type is abstract) and the audit the reference
   driver's. *)
let test_wrappers_return_reduced_states () =
  let module Reference = Mincut_congest.Network_reference in
  let module Tree = Mincut_graph.Tree in
  let module ISet = Mincut_util.Intset in
  let same_audit name a b =
    check_bool (name ^ ": audit") true (Mincut_analysis.Replay.diff_audits a b = [])
  in
  let rec root_of (f : Primitives.forest) v =
    if f.Primitives.parent.(v) = -1 then v else root_of f f.Primitives.parent.(v)
  in
  let rec depth_in (f : Primitives.forest) v =
    if f.Primitives.parent.(v) = -1 then 0 else 1 + depth_in f f.Primitives.parent.(v)
  in
  let forest_checks name g (f : Primitives.forest) =
    let n = Graph.n g in
    let values = Array.init n (fun v -> (v * 7 mod 31) + 1) in
    (* convergecast: every node's subtree sum *)
    let sums = Array.make n 0 in
    for v = 0 to n - 1 do
      let u = ref v in
      while !u <> -1 do
        sums.(!u) <- sums.(!u) + values.(v);
        u := f.Primitives.parent.(!u)
      done
    done;
    let got, audit =
      Primitives.convergecast ~words:(fun _ -> 2) ~combine:( + ) g f values
    in
    check_bool (name ^ " convergecast: values") true (got = sums);
    same_audit (name ^ " convergecast") audit
      (snd
         (Reference.run ~words:(fun _ -> 2) g
            (Primitives.convergecast_program f ~combine:( + ) ~values)));
    (* broadcast: each node its root's items *)
    let item r i = (3 * r) + i in
    let got, audit = Primitives.broadcast ~words:words1 ~k:3 ~item g f in
    check_bool (name ^ " broadcast: values") true
      (got = Array.init n (fun v -> List.init 3 (item (root_of f v))));
    same_audit (name ^ " broadcast") audit
      (snd (Reference.run ~words:words1 g (Primitives.broadcast_program f ~k:3 ~item)));
    (* upcast: every root the ids held in its tree, the empty set
       elsewhere *)
    let initial v = if v mod 4 = 0 then [ v mod 5; v ] else [] in
    let height = Array.fold_left max 0 (Array.init n (depth_in f)) in
    let k = List.length (List.sort_uniq Int.compare (List.concat (List.init n initial))) in
    let rounds = height + k + 2 in
    let got, audit = Primitives.upcast ~rounds g f ~initial in
    let expected =
      Array.init n (fun r ->
          if f.Primitives.parent.(r) <> -1 then ISet.empty
          else
            ISet.of_list
              (List.concat (List.filter_map
                 (fun v -> if root_of f v = r then Some (initial v) else None)
                 (List.init n Fun.id))))
    in
    check_bool (name ^ " upcast: values") true (Array.for_all2 ISet.equal got expected);
    same_audit (name ^ " upcast") audit
      (snd (reference_bounded ~words:words1 ~rounds g (Primitives.upcast_program f ~initial)))
  in
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let tree = Tree.bfs_tree g ~root:0 in
      let height = Tree.height tree in
      let values = Array.init n (fun v -> (v * 7 mod 31) + 1) in
      forest_checks (name ^ " tree") g (Primitives.forest_of_tree tree);
      let fr = Mincut_mst.Fragments.partition tree ~target:(Mincut_core.Params.sqrt_target ~n) in
      forest_checks (name ^ " fragments") g (Mincut_core.One_respect.frag_links tree fr);
      (* exchange and bfs: public state types, mapped as before *)
      let got, audit = Primitives.exchange ~words:words1 g values in
      let states, ref_audit =
        Reference.run ~words:words1 g (Primitives.exchange_program g ~values)
      in
      check_bool (name ^ " exchange: values") true
        (got = Array.map (Option.value ~default:[]) states);
      same_audit (name ^ " exchange") audit ref_audit;
      let bfs, cost = Primitives.bfs_tree g ~root:0 in
      let states, ref_audit = Reference.run ~words:words1 g (Primitives.bfs_program g ~root:0) in
      check_bool (name ^ " bfs: parents") true
        (bfs.Tree.parent
        = Array.map (fun (st : Primitives.bfs_state) -> st.Primitives.parent) states);
      same_audit (name ^ " bfs") (audit_of cost) ref_audit;
      (* flood max: everyone the maximum *)
      let got, cost = Primitives.flood_max ~tree g ~values in
      let top = Array.fold_left max 0 values in
      check_bool (name ^ " flood-max: values") true (Array.for_all (( = ) top) got);
      same_audit (name ^ " flood-max") (audit_of cost)
        (snd
           (reference_bounded ~words:words1 ~rounds:((2 * height) + 2) g
              (Primitives.flood_max_program g ~values))))
    [ ("torus4", Generators.torus 4 4); ("torus18", Generators.torus 18 18) ]

(* [Tree.bfs_tree] takes the least-id neighbour one level up as parent,
   the rule of the engine's flood, so the two trees are one *)
let test_bfs_tree_is_engine_tree () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      List.iter
        (fun root ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s from %d" name root)
            (fst (Primitives.bfs_tree g ~root)).Tree.parent
            (Tree.bfs_tree g ~root).Tree.parent)
        (List.sort_uniq Int.compare [ 0; 1; n / 2; n - 1 ]))
    (small_connected_graphs () @ multigraphs ())

let suite =
  [
    tc "engine: delivers to neighbors" test_engine_delivers_neighbors;
    tc "engine: rejects non-neighbor sends" test_engine_rejects_non_neighbor;
    tc "engine: rejects duplicate sends" test_engine_rejects_duplicate_send;
    tc "engine: rejects oversized messages" test_engine_rejects_oversized;
    tc "engine: rejects self sends" test_engine_rejects_self_send;
    tc "engine: watchdog" test_engine_watchdog;
    tc "sanitize: round-timer program raises Round_dependence"
      test_sanitize_catches_round_timer;
    tc "engine: duplicate send caught with a warm channel memo"
      test_duplicate_send_with_warm_memo;
    tc "engine: a stale channel memo never hides a duplicate"
      test_stale_memo_never_hides_a_duplicate;
    tc "engine: strict mode catches edge overload" test_engine_strict_edge_overload;
    tc "config: strict rejects bad budget" test_strict_rejects_bad_budget;
    tc "primitives: bfs tree (real rounds)" test_bfs_tree_real;
    tc "primitives: bfs tree refuses a disconnected graph" test_bfs_tree_disconnected;
    tc "primitives: convergecast sum" test_convergecast_sum_real;
    tc "primitives: pipelined broadcast" test_broadcast_items_real;
    tc "primitives: broadcast of nothing" test_broadcast_empty;
    tc "primitives: pipelined upcast" test_upcast_distinct_real;
    tc "primitives: upcast dedups" test_upcast_with_duplicates;
    tc "primitives: flood max" test_flood_max_real;
    tc "primitives: flood with echo" test_flood_echo;
    tc "engine: deterministic" test_engine_deterministic;
    tc "engine: congestion profile" test_congestion_profile;
    tc "audit: max edge load counts pipelined traffic" test_max_edge_load_pipelined;
    tc "audit: max edge load of one-shot flood" test_max_edge_load_single_shot;
    tc "engine: flat driver matches reference driver" test_driver_matches_reference;
    tc "engine: seed-driver audit goldens" test_seed_driver_goldens;
    tc "primitives: parent-recorded audit goldens" test_primitive_goldens;
    tc "primitives: flood audits on multigraphs" test_multigraph_flood_goldens;
    tc "primitives: flood max sleeps between messages" test_flood_max_sleeps;
    tc "cost: algebra" test_cost_algebra;
    tc "pipeline: formulas" test_pipeline_formulas;
    tc "config: bits per word" test_bits_per_word;
    tc "audit: primitives fit word budget" test_audit_word_budget_respected;
    tc "primitives: sanitized exchange = always-sort oracle"
      test_exchange_sanitized_matches_oracle;
    tc "primitives: wrappers return the reduced states" test_wrappers_return_reduced_states;
    tc "engine: active set at 32-node word edges = reference" test_engine_bitset_word_edges;
    tc "primitives: Tree.bfs_tree is the engine's BFS tree" test_bfs_tree_is_engine_tree;
  ]
