module Tree = Mincut_graph.Tree
module Graph = Mincut_graph.Graph

(* Canonical sets (strictly-increasing lists, [Mincut_util.Intset])
   rather than [Set.Make]: the sanitizer byte-compares marshalled
   states, and AVL shapes depend on insertion order while these do
   not. *)
module ISet = Mincut_util.Intset

type forest = { parent : int array; children : int array array }

let forest_of_tree (t : Tree.t) = { parent = t.Tree.parent; children = t.Tree.children }

(* children by counting: size every row, then fill in ascending node
   order *)
let forest_of_parents parent =
  let n = Array.length parent in
  let count = Array.make n 0 in
  for v = 0 to n - 1 do
    let p = parent.(v) in
    if p <> -1 then count.(p) <- count.(p) + 1
  done;
  let children = Array.init n (fun v -> Array.make count.(v) 0) in
  for v = 0 to n - 1 do
    let p = parent.(v) in
    if p <> -1 then begin
      let row = children.(p) in
      row.(Array.length row - count.(p)) <- v;
      count.(p) <- count.(p) - 1
    end
  done;
  { parent; children }

(* One message carrying [x] to each distinct neighbor of [v], in
   ascending order: the engine models one channel per node pair, so
   flooding primitives address each neighbor once even in multigraphs
   (conservative for round counts).  The CSR row is sorted by
   (neighbor, edge id), so parallel slots are adjacent and the walk
   needs no sort. *)
let send_neighbors g v x =
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let lo = off.(v) in
  let rec walk s acc =
    if s < lo then acc
    else
      let u = nbr.(s) in
      walk (s - 1) (if s > lo && nbr.(s - 1) = u then acc else (u, x) :: acc)
  in
  walk (off.(v + 1) - 1) []

(* one message carrying [x] to each of [dsts], in their order; a
   top-level loop, so a step that calls it allocates no closure *)
let rec send_from dsts x i acc = if i < 0 then acc else send_from dsts x (i - 1) ((dsts.(i), x) :: acc)

let send_all dsts x = send_from dsts x (Array.length dsts - 1) []

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
          ({ st with done_ = true }, send_neighbors g node 0)
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
              ({ dist = d + 1; parent = p; done_ = true }, send_neighbors g node (d + 1))
        else (st, []))
      ;
    halted = (fun st -> st.done_);
  }

let bfs_tree ?cfg g ~root =
  (* nodes the flood never reaches never halt, so a disconnected graph
     would run to the watchdog: refuse it before sending anything *)
  if not (Mincut_graph.Bfs.is_connected g) then
    invalid_arg "Primitives.bfs_tree: disconnected graph";
  let parent, audit =
    Network.run ?cfg ~words:(fun _ -> 1) ~result:(fun _ st -> st.parent) g (bfs_program g ~root)
  in
  let tree = Tree.of_parents ~graph_n:(Graph.n g) ~root ~parent in
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
  Network.run ?cfg ~words ~result:(fun _ st -> st.acc) g (convergecast_program f ~combine ~values)

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
  Network.run ?cfg ~words ~result:(fun _ st -> List.rev st.got) g (broadcast_program f ~k ~item)

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
        let known = ISet.of_list (initial v) in
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

(* only the roots' sets are kept: every caller reads what the roots
   learned, and each other node's set would be one more list to drop *)
let upcast ?cfg ~rounds g (f : forest) ~initial =
  let at_root v st = if f.parent.(v) = -1 then st.known else ISet.empty in
  Network.run_bounded ?cfg ~words:(fun _ -> 1) ~result:at_root ~rounds g
    (upcast_program f ~initial)

let upcast_distinct ?cfg g ~tree ~initial =
  let all = ISet.of_list (List.concat (Array.to_list initial)) in
  let rounds = Tree.height tree + ISet.cardinal all + 2 in
  let known, audit = upcast ?cfg ~rounds g (forest_of_tree tree) ~initial:(Array.get initial) in
  let got = known.(tree.Tree.root) in
  if not (ISet.equal got all) then failwith "Primitives.upcast_distinct: incomplete upcast";
  (ISet.elements got, Cost.executed ~audit "pipelined upcast (real)" audit.Network.rounds)

(* ------------------------------------------------------------------ *)
(* One-round exchange with every neighbor                              *)
(* ------------------------------------------------------------------ *)

(* Round 0 sends; round 1 records the inbox, sorted by sender (each
   sender sends once, so the order is canonical under any delivery
   order), and halts.  The engine delivers inboxes in ascending sender
   order already, so the sort runs only on an inbox found out of order:
   a permuted one, as sanitize mode replays. *)
let by_sender (s, _) (s', _) = Int.compare s s'

let rec ascending_senders prev = function
  | [] -> true
  | (s, _) :: rest -> prev < s && ascending_senders s rest

let exchange_program g ~values : ((int * 'a) list option, 'a) Network.program =
  {
    initial = (fun _ -> None);
    step =
      (fun ~node ~round ~inbox st ->
        if round = 0 then (st, send_neighbors g node values.(node))
        else if ascending_senders (-1) inbox then (Some inbox, [])
        else (Some (List.sort by_sender inbox), []))
      ;
    halted = Option.is_some;
  }

let exchange ?cfg ~words g values =
  Network.run ?cfg ~words ~result:(fun _ st -> Option.value ~default:[] st) g
    (exchange_program g ~values)

(* ------------------------------------------------------------------ *)
(* Flooding a maximum (leader election)                                *)
(* ------------------------------------------------------------------ *)

(* A node floods its value in round 0 and then each improvement the
   round it learns it.  A step that learns nothing returns [st] itself,
   not an equal copy, so the engine puts the node to sleep until mail
   arrives; a fresh record would keep every node stepping every round. *)
type fm_state = { best : int; fresh : bool }

let flood_max_program g ~values : (fm_state, int) Network.program =
  {
    initial = (fun v -> { best = values.(v); fresh = true });
    step =
      (fun ~node ~round:_ ~inbox st ->
        let best = List.fold_left (fun a (_, x) -> max a x) st.best inbox in
        if best > st.best || st.fresh then ({ best; fresh = false }, send_neighbors g node best)
        else (st, []))
      ;
    halted = (fun _ -> false);
  }

(* Any spanning tree rooted at r has height h >= ecc(r), and every hop
   distance is <= 2·ecc(r), so the flood is complete after 2h + 2
   rounds. *)
let flood_max ?cfg ?tree g ~values =
  let tree0 = match tree with Some t -> t | None -> fst (bfs_tree ?cfg g ~root:0) in
  let bound = (2 * Tree.height tree0) + 2 in
  let prog = flood_max_program g ~values in
  let best, audit =
    Network.run_bounded ?cfg ~words:(fun _ -> 1) ~result:(fun _ st -> st.best) ~rounds:bound g prog
  in
  (best, Cost.executed ~audit "flood-max (real)" audit.Network.rounds)

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
