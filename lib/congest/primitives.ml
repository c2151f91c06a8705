module Tree = Mincut_graph.Tree
module Graph = Mincut_graph.Graph

(* Neighbors without multiplicity: the engine models one channel per
   node pair, so flooding primitives address each neighbor once even in
   multigraphs (conservative for round counts). *)
let distinct_neighbors g v =
  List.sort_uniq Int.compare (Array.to_list (Array.map fst (Graph.adj g v)))

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

let bfs_tree_audited ?cfg g ~root =
  let n = Graph.n g in
  let prog = bfs_program g ~root in
  let states, audit = Network.run ?cfg ~words:(fun _ -> 1) g prog in
  let parent = Array.map (fun st -> st.parent) states in
  let parent_edge =
    Array.mapi (fun v st -> if st.parent = -1 then -1 else min_edge_between g v st.parent) states
  in
  if Array.exists (fun st -> st.dist = -1) states then
    invalid_arg "Primitives.bfs_tree: disconnected graph";
  let tree = Tree.of_parents ~graph_n:n ~root ~parent ~parent_edge in
  (tree, Cost.executed ~audit "bfs-tree (real)" audit.Network.rounds, audit)

let bfs_tree ?cfg g ~root =
  let tree, cost, _ = bfs_tree_audited ?cfg g ~root in
  (tree, cost)

(* ------------------------------------------------------------------ *)
(* Convergecast of one aggregate                                       *)
(* ------------------------------------------------------------------ *)

type cc_state = { remaining : int; acc : int; sent : bool }

let convergecast_program ~tree ~values : (cc_state, int) Network.program =
  let root = tree.Tree.root in
  {
    initial =
      (fun v ->
        {
          remaining = Array.length tree.Tree.children.(v);
          acc = values.(v);
          sent = false;
        });
    step =
      (fun ~node ~round:_ ~inbox st ->
        let acc = List.fold_left (fun a (_, x) -> a + x) st.acc inbox in
        let remaining = st.remaining - List.length inbox in
        if remaining = 0 && not st.sent then
          if node = root then ({ remaining; acc; sent = true }, [])
          else ({ remaining; acc; sent = true }, [ (tree.Tree.parent.(node), acc) ])
        else ({ st with remaining; acc }, []))
      ;
    halted = (fun st -> st.sent);
  }

let convergecast_sum_audited ?cfg g ~tree ~values =
  let root = tree.Tree.root in
  let prog = convergecast_program ~tree ~values in
  let states, audit = Network.run ?cfg ~words:(fun _ -> 2) g prog in
  (states.(root).acc, Cost.executed ~audit "convergecast (real)" audit.Network.rounds, audit)

let convergecast_sum ?cfg g ~tree ~values =
  let v, cost, _ = convergecast_sum_audited ?cfg g ~tree ~values in
  (v, cost)

(* ------------------------------------------------------------------ *)
(* Pipelined broadcast of k items                                      *)
(* ------------------------------------------------------------------ *)

(* State carries the node id so [halted] can distinguish the root (which
   halts after sending) from everyone else (halting after receiving). *)
type bc_state = { me : int; got : int list; (* reversed *) next_to_send : int }

let broadcast_program ~tree ~items : (bc_state, int) Network.program =
  let k = Array.length items in
  let root = tree.Tree.root in
  let children v = tree.Tree.children.(v) in
  {
    initial = (fun v -> { me = v; got = []; next_to_send = 0 });
    step =
      (fun ~node ~round:_ ~inbox st ->
        if node = root then begin
          (* send one item per round to every child, in order *)
          let i = st.next_to_send in
          if i >= k then (st, [])
          else
            ( { st with next_to_send = i + 1 },
              Array.to_list (Array.map (fun c -> (c, items.(i))) (children node)) )
        end
        else
          match inbox with
          | [] -> (st, [])
          | (_, item) :: _ ->
              (* single in-order stream from the parent: store & forward *)
              ( { st with got = item :: st.got },
                Array.to_list (Array.map (fun c -> (c, item)) (children node)) ))
      ;
    halted =
      (fun st ->
        k = 0
        || if st.me = root then st.next_to_send >= k else List.length st.got >= k);
  }

let broadcast_items_audited ?cfg g ~tree ~items =
  let root = tree.Tree.root in
  let prog = broadcast_program ~tree ~items in
  let states, audit = Network.run ?cfg ~words:(fun _ -> 1) g prog in
  let per_node = Array.map (fun st -> Array.of_list (List.rev st.got)) states in
  per_node.(root) <- Array.copy items;
  (per_node, Cost.executed ~audit "pipelined broadcast (real)" audit.Network.rounds, audit)

let broadcast_items ?cfg g ~tree ~items =
  let per_node, cost, _ = broadcast_items_audited ?cfg g ~tree ~items in
  (per_node, cost)

(* ------------------------------------------------------------------ *)
(* Pipelined upcast of distinct items                                  *)
(* ------------------------------------------------------------------ *)

(* Canonical sets (strictly-increasing lists, [Mincut_util.Intset])
   rather than [Set.Make]: the sanitizer byte-compares marshalled
   states, and AVL shapes depend on insertion order while these do
   not. *)
module ISet = Mincut_util.Intset

type up_state = { known : ISet.t; sent_up : ISet.t }

let upcast_program ~tree ~initial : (up_state, int) Network.program =
  let root = tree.Tree.root in
  {
    initial = (fun v -> { known = ISet.of_list initial.(v); sent_up = ISet.empty });
    step =
      (fun ~node ~round:_ ~inbox st ->
        let known = List.fold_left (fun a (_, x) -> ISet.add x a) st.known inbox in
        if node = root then ({ st with known }, [])
        else
          let unsent = ISet.diff known st.sent_up in
          match ISet.min_elt_opt unsent with
          | None -> ({ st with known }, [])
          | Some item ->
              ( { known; sent_up = ISet.add item st.sent_up },
                [ (tree.Tree.parent.(node), item) ] ))
      ;
    halted = (fun _ -> false);
  }

let upcast_distinct_audited ?cfg g ~tree ~initial =
  let root = tree.Tree.root in
  let all = Array.fold_left (fun acc l -> List.fold_left (fun a x -> ISet.add x a) acc l) ISet.empty initial in
  let k = ISet.cardinal all in
  let height = Tree.height tree in
  let prog = upcast_program ~tree ~initial in
  let bound = height + k + 2 in
  let states, audit = Network.run_bounded ?cfg ~words:(fun _ -> 1) ~rounds:bound g prog in
  let got = states.(root).known in
  if not (ISet.equal got all) then failwith "Primitives.upcast_distinct: incomplete upcast";
  (ISet.elements got, Cost.executed ~audit "pipelined upcast (real)" audit.Network.rounds, audit)

let upcast_distinct ?cfg g ~tree ~initial =
  let items, cost, _ = upcast_distinct_audited ?cfg g ~tree ~initial in
  (items, cost)

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

type fe_state = {
  dist : int;
  parent : int;
  flooded : bool;
  expecting : int;  (* children acks outstanding; -1 = unknown yet *)
  acked : bool;
}

(* Two real sub-programs keep the logic simple and the cost honest:
   first the flood (building the BFS tree), then the echo (an ack wave
   up the freshly built tree).  A production implementation interleaves
   them; the round total is the same 2·ecc + O(1). *)
let echo_program ~tree : (fe_state, int) Network.program =
  let root = tree.Tree.root in
  {
    initial =
      (fun v ->
        {
          dist = tree.Tree.depth.(v);
          parent = tree.Tree.parent.(v);
          flooded = true;
          expecting = Array.length tree.Tree.children.(v);
          acked = false;
        });
    step =
      (fun ~node ~round:_ ~inbox st ->
        let expecting = st.expecting - List.length inbox in
        if expecting = 0 && not st.acked then
          if node = root then ({ st with expecting; acked = true }, [])
          else ({ st with expecting; acked = true }, [ (st.parent, 1) ])
        else ({ st with expecting }, []))
      ;
    halted = (fun st -> st.acked);
  }

let flood_echo ?cfg g ~root =
  let tree, c_flood = bfs_tree ?cfg g ~root in
  let _, audit = Network.run ?cfg ~words:(fun _ -> 1) g (echo_program ~tree) in
  (tree, Cost.( ++ ) c_flood (Cost.executed ~audit "echo (real)" audit.Network.rounds))
