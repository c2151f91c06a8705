module Tree = Mincut_graph.Tree
module Graph = Mincut_graph.Graph

(* Canonical sets (strictly-increasing lists, [Mincut_util.Intset])
   rather than [Set.Make]: the sanitizer byte-compares marshalled
   states, and AVL shapes depend on insertion order while these do
   not. *)
module ISet = Mincut_util.Intset

type forest = { parent : int array; children : int array array }

let forest_of_tree (t : Tree.t) = { parent = t.Tree.parent; children = t.Tree.children }

let forest_of_parents parent =
  let n = Array.length parent in
  let kids = Array.make n [] in
  for v = n - 1 downto 0 do
    let p = parent.(v) in
    if p <> -1 then kids.(p) <- v :: kids.(p)
  done;
  { parent; children = Array.map Array.of_list kids }

(* Neighbors without multiplicity: the engine models one channel per
   node pair, so flooding primitives address each neighbor once even in
   multigraphs (conservative for round counts). *)
let distinct_neighbors g v =
  List.sort_uniq Int.compare (Array.to_list (Array.map fst (Graph.adj g v)))

(* one message carrying [x] to each of [dsts] *)
let send_all dsts x = Array.fold_right (fun c acc -> (c, x) :: acc) dsts []

let min_edge_between g u v =
  let best = ref (-1) in
  Array.iter
    (fun (x, id) -> if x = v && (!best = -1 || id < !best) then best := id)
    (Graph.adj g u);
  if !best = -1 then invalid_arg "Primitives: no edge between claimed neighbors";
  !best

(* ------------------------------------------------------------------ *)
(* BFS tree by synchronous flooding                                    *)
(* ------------------------------------------------------------------ *)

type bfs_state = { dist : int; parent : int; done_ : bool }

let bfs_program g ~root : (bfs_state, int) Network.program =
  {
    initial = (fun v -> { dist = (if v = root then 0 else -1); parent = -1; done_ = v = -1 });
    step =
      (fun ~node ~round ~inbox st ->
        if st.dist = 0 && round = 0 then
          (* the root announces itself and is done *)
          ( { st with done_ = true },
            List.map (fun u -> (u, 0)) (distinct_neighbors g node) )
        else if st.dist = -1 then
          match inbox with
          | [] -> (st, [])
          | first :: rest ->
              (* all offers this round carry the same distance; adopt
                 the smallest sender id (an explicit fold, so the choice
                 holds under any delivery order, not just the engine's
                 sorted inboxes) and flood onward immediately *)
              let p, d =
                List.fold_left
                  (fun (bp, bd) (p, d) -> if p < bp then (p, d) else (bp, bd))
                  first rest
              in
              ( { dist = d + 1; parent = p; done_ = true },
                List.map (fun u -> (u, d + 1)) (distinct_neighbors g node) )
        else (st, []))
      ;
    halted = (fun st -> st.done_);
  }

let bfs_tree ?cfg g ~root =
  (* nodes the flood never reaches never halt, so a disconnected graph
     would run to the watchdog: refuse it before sending anything *)
  if not (Mincut_graph.Bfs.is_connected g) then
    invalid_arg "Primitives.bfs_tree: disconnected graph";
  let states, audit = Network.run ?cfg ~words:(fun _ -> 1) g (bfs_program g ~root) in
  let parent = Array.map (fun (st : bfs_state) -> st.parent) states in
  let parent_edge =
    Array.mapi
      (fun v (st : bfs_state) -> if st.parent = -1 then -1 else min_edge_between g v st.parent)
      states
  in
  let tree = Tree.of_parents ~graph_n:(Graph.n g) ~root ~parent ~parent_edge in
  (tree, Cost.executed ~audit "bfs-tree (real)" audit.Network.rounds)

(* ------------------------------------------------------------------ *)
(* Convergecast: one aggregate up every tree of the forest             *)
(* ------------------------------------------------------------------ *)

(* A node forwards its partial aggregate to its parent in the round its
   last child reports (a leaf in round 0) and halts.  A node still
   waiting on children with an empty inbox returns its state physically
   unchanged, which the engine steps in O(1). *)
type 'a cc_state = { remaining : int; acc : 'a; sent : bool }

let convergecast_program (f : forest) ~combine ~values : ('a cc_state, 'a) Network.program =
  {
    initial =
      (fun v -> { remaining = Array.length f.children.(v); acc = values.(v); sent = false });
    step =
      (fun ~node ~round:_ ~inbox st ->
        match inbox with
        | [] when st.remaining > 0 -> (st, [])
        | _ ->
            let acc = List.fold_left (fun a (_, x) -> combine a x) st.acc inbox in
            let remaining = st.remaining - List.length inbox in
            if remaining > 0 then ({ st with remaining; acc }, [])
            else
              let p = f.parent.(node) in
              ({ remaining; acc; sent = true }, if p = -1 then [] else [ (p, acc) ]))
      ;
    halted = (fun st -> st.sent);
  }

let convergecast ?cfg ~words ~combine g f values =
  let states, audit = Network.run ?cfg ~words g (convergecast_program f ~combine ~values) in
  (Array.map (fun st -> st.acc) states, audit)

let convergecast_sum ?cfg g ~tree ~values =
  let acc, audit =
    convergecast ?cfg ~words:(fun _ -> 2) ~combine:( + ) g (forest_of_tree tree) values
  in
  (acc.(tree.Tree.root), Cost.executed ~audit "convergecast (real)" audit.Network.rounds)

(* ------------------------------------------------------------------ *)
(* Pipelined broadcast: every root streams its own k items             *)
(* ------------------------------------------------------------------ *)

(* A root sends its item [i] to its children in round [i]; every other
   node forwards each item in the round it arrives (a single in-order
   stream from the parent).  [count] is the number of items sent (a
   root) or received (anyone else), so every node halts at [k]. *)
type 'a bc_state = { count : int; got : 'a list (* reversed *) }

let broadcast_program (f : forest) ~k ~item : ('a bc_state, 'a) Network.program =
  let pass node x st = ({ count = st.count + 1; got = x :: st.got }, send_all f.children.(node) x) in
  {
    initial = (fun _ -> { count = 0; got = [] });
    step =
      (fun ~node ~round:_ ~inbox st ->
        if f.parent.(node) = -1 then pass node (item node st.count) st
        else match inbox with [] -> (st, []) | (_, x) :: _ -> pass node x st)
      ;
    halted = (fun st -> st.count >= k);
  }

let broadcast ?cfg ~words ~k ~item g f =
  let states, audit = Network.run ?cfg ~words g (broadcast_program f ~k ~item) in
  (Array.map (fun st -> List.rev st.got) states, audit)

let broadcast_items ?cfg g ~tree ~items =
  let per_node, audit =
    broadcast ?cfg ~words:(fun _ -> 1) ~k:(Array.length items)
      ~item:(fun _ i -> items.(i))
      g (forest_of_tree tree)
  in
  ( Array.map Array.of_list per_node,
    Cost.executed ~audit "pipelined broadcast (real)" audit.Network.rounds )

(* ------------------------------------------------------------------ *)
(* Pipelined upcast of distinct ids to every root                      *)
(* ------------------------------------------------------------------ *)

(* [unsent] holds the known ids not yet passed up, so the next one is
   its head: the smallest-id-first schedule, popped in O(1).  An id the
   node already knows was queued or sent before and is dropped, so each
   id crosses each edge at most once.  A root sends nothing and keeps
   [unsent] empty.  A node with an empty inbox and nothing left to send
   returns its state physically unchanged, which the engine steps in
   O(1). *)
type up_state = { known : ISet.t; unsent : ISet.t }

let rec absorb ~root st = function
  | [] -> st
  | (_, x) :: rest ->
      if ISet.mem x st.known then absorb ~root st rest
      else
        absorb ~root
          { known = ISet.add x st.known; unsent = (if root then st.unsent else ISet.add x st.unsent) }
          rest

let upcast_program (f : forest) ~initial : (up_state, int) Network.program =
  {
    initial =
      (fun v ->
        let known = ISet.of_list initial.(v) in
        { known; unsent = (if f.parent.(v) = -1 then ISet.empty else known) });
    step =
      (fun ~node ~round:_ ~inbox st ->
        let p = f.parent.(node) in
        let st = absorb ~root:(p = -1) st inbox in
        match (st.unsent :> int list) with
        | [] -> (st, [])
        | item :: _ -> ({ st with unsent = ISet.remove_min st.unsent }, [ (p, item) ]))
      ;
    halted = (fun _ -> false);
  }

let upcast ?cfg ~rounds g f ~initial =
  let states, audit =
    Network.run_bounded ?cfg ~words:(fun _ -> 1) ~rounds g (upcast_program f ~initial)
  in
  (Array.map (fun st -> st.known) states, audit)

let upcast_distinct ?cfg g ~tree ~initial =
  let all = ISet.of_list (List.concat (Array.to_list initial)) in
  let rounds = Tree.height tree + ISet.cardinal all + 2 in
  let known, audit = upcast ?cfg ~rounds g (forest_of_tree tree) ~initial in
  let got = known.(tree.Tree.root) in
  if not (ISet.equal got all) then failwith "Primitives.upcast_distinct: incomplete upcast";
  (ISet.elements got, Cost.executed ~audit "pipelined upcast (real)" audit.Network.rounds)

(* ------------------------------------------------------------------ *)
(* One-round exchange with every neighbor                              *)
(* ------------------------------------------------------------------ *)

(* Round 0 sends; round 1 records the inbox, sorted by sender (each
   sender sends once, so the order is canonical under any delivery
   order), and halts. *)
let by_sender (s, _) (s', _) = Int.compare s s'

let exchange_program g ~values : ((int * 'a) list option, 'a) Network.program =
  {
    initial = (fun _ -> None);
    step =
      (fun ~node ~round ~inbox st ->
        if round = 0 then (st, List.map (fun u -> (u, values.(node))) (distinct_neighbors g node))
        else (Some (List.sort by_sender inbox), []))
      ;
    halted = Option.is_some;
  }

let exchange ?cfg ~words g values =
  let states, audit = Network.run ?cfg ~words g (exchange_program g ~values) in
  (Array.map (Option.value ~default:[]) states, audit)

(* ------------------------------------------------------------------ *)
(* Flooding a maximum (leader election)                                *)
(* ------------------------------------------------------------------ *)

type fm_state = { best : int; fresh : bool }

let flood_max_program g ~values : (fm_state, int) Network.program =
  {
    initial = (fun v -> { best = values.(v); fresh = true });
    step =
      (fun ~node ~round:_ ~inbox st ->
        let best = List.fold_left (fun a (_, x) -> max a x) st.best inbox in
        if best > st.best || st.fresh then
          ( { best; fresh = false },
            List.map (fun u -> (u, best)) (distinct_neighbors g node) )
        else ({ st with best }, []))
      ;
    halted = (fun _ -> false);
  }

let flood_max ?cfg g ~values =
  let tree0, _ = bfs_tree ?cfg g ~root:0 in
  let bound = (2 * Tree.height tree0) + 2 in
  let prog = flood_max_program g ~values in
  let states, audit = Network.run_bounded ?cfg ~words:(fun _ -> 1) ~rounds:bound g prog in
  (Array.map (fun st -> st.best) states, Cost.executed ~audit "flood-max (real)" audit.Network.rounds)

(* ------------------------------------------------------------------ *)
(* Flood with echo (termination detection at the root)                 *)
(* ------------------------------------------------------------------ *)

(* Two real sub-programs keep the logic simple and the cost honest:
   first the flood (building the BFS tree), then the echo, a one-word
   convergecast of acknowledgements up the freshly built tree.  A
   production implementation interleaves them; the round total is the
   same 2·ecc + O(1). *)
let flood_echo ?cfg g ~root =
  let tree, c_flood = bfs_tree ?cfg g ~root in
  let _, audit =
    convergecast ?cfg ~words:(fun _ -> 1) ~combine:( + ) g (forest_of_tree tree)
      (Array.make (Graph.n g) 1)
  in
  (tree, Cost.( ++ ) c_flood (Cost.executed ~audit "echo (real)" audit.Network.rounds))
