(* Shared helpers for the test suites. *)

module Rng = Mincut_util.Rng
module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Bfs = Mincut_graph.Bfs
module Tree = Mincut_graph.Tree

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let tc name f = Alcotest.test_case name `Quick f

let tc_slow name f = Alcotest.test_case name `Slow f

(* [Graph.iter_adj]'s walk of [v]'s row, as (neighbor, edge id) pairs *)
let adj_list g v =
  let acc = ref [] in
  Graph.iter_adj g v (fun u id -> acc := (u, id) :: !acc);
  List.rev !acc

(* Reference LCA by walking parent pointers: the oracle for both
   [Tree.Lca] and the distributed Step 5. *)
let naive_lca t a b =
  let rec up acc v = if v = -1 then acc else up (v :: acc) t.Tree.parent.(v) in
  let anc_a = up [] a in
  let rec go b = if List.mem b anc_a then b else go t.Tree.parent.(b) in
  go b

(* A deterministic bag of small connected test graphs covering the edge
   cases (trees, cycles, cliques, multigraph-ish planted cuts, weighted). *)
let small_connected_graphs () =
  let rng = Rng.create 0xC0FFEE in
  let weights = { Generators.wmin = 1; wmax = 5 } in
  [
    ("path4", Generators.path 4);
    ("path2", Generators.path 2);
    ("ring5", Generators.ring 5);
    ("ring3-weighted", Generators.ring ~weights ~rng 3);
    ("complete5", Generators.complete 5);
    ("complete6-weighted", Generators.complete ~weights ~rng 6);
    ("grid3x4", Generators.grid 3 4);
    ("torus3x3", Generators.torus 3 3);
    ("hypercube3", Generators.hypercube 3);
    ("wheel7", Generators.wheel 7);
    ("barbell4", Generators.barbell 4);
    ("dumbbell3-2", Generators.dumbbell 3 2);
    ("caterpillar3x2", Generators.caterpillar 3 2);
    ("random-tree12", Generators.random_tree ~rng 12);
    ("gnp12", Generators.gnp_connected ~rng 12 0.5);
    ("gnp14-weighted", Generators.gnp_connected ~rng ~weights 14 0.5);
    ( "planted10",
      Generators.planted_cut ~rng ~n:10 ~cut_edges:2 ~p_in:0.9 () );
    ("regular8-3", Generators.random_regular ~rng 8 3);
  ]

(* qcheck generator: connected random graph with 2..max_n nodes, drawn
   from structurally diverse families (trees, dense gnp, weighted gnp,
   rings with chords, small planted cuts). *)
let arbitrary_connected ?(max_n = 14) () =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n = int_range 2 max_n in
    let* style = int_range 0 4 in
    return
      (let rng = Rng.create seed in
       match style with
       | 0 -> Generators.random_tree ~rng n
       | 1 -> Generators.gnp_connected ~rng n 0.6
       | 2 ->
           Generators.gnp_connected ~rng
             ~weights:{ Generators.wmin = 1; wmax = 4 }
             n 0.6
       | 3 ->
           if n < 3 then Generators.path n
           else
             (* ring plus a few random chords *)
             let base = Generators.ring n in
             let chords =
               List.init (max 1 (n / 4)) (fun _ ->
                   let u = Rng.int rng n and v = Rng.int rng n in
                   if u = v then None else Some (min u v, max u v, 1 + Rng.int rng 3))
               |> List.filter_map Fun.id
             in
             Graph.create ~n
               (Graph.fold_edges
                  (fun acc e -> (e.Graph.u, e.Graph.v, e.Graph.w) :: acc)
                  chords base)
       | _ ->
           if n < 4 then Generators.path n
           else Generators.planted_cut ~rng ~n ~cut_edges:(1 + Rng.int rng 3) ~p_in:0.7 ()))

(* [Network.run]'s [~result] that keeps each node's final state *)
let keep_state _ st = st

(* [sub] occurs in [s] *)
let contains ~sub s =
  let n = String.length sub and len = String.length s in
  let rec at i = i + n <= len && (String.sub s i n = sub || at (i + 1)) in
  at 0

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* List-based oracles for the flat-array builders                      *)
(* ------------------------------------------------------------------ *)

(* The builders [Tree.of_parents], [Tree.of_edge_ids],
   [Fragments.partition] and [Primitives.forest_of_parents] as they were
   written before they moved to flat arrays: adjacency lists, [Queue],
   [Stack] and [Hashtbl].  The flat versions must agree with them field
   for field and raise the same [Invalid_argument] messages.
   [Tree.t] is private, so the tree oracle returns its fields in a
   record of its own. *)

type ref_tree = {
  r_graph_n : int;
  r_root : int;
  r_parent : int array;
  r_children : int array array;
  r_depth : int array;
  r_preorder : int array;
  r_pos : int array;
  r_stop : int array;
}

let ref_of_parents ~graph_n ~root ~parent =
  if Array.length parent <> graph_n then
    invalid_arg "Tree.of_parents: array length mismatch";
  if root < 0 || root >= graph_n || parent.(root) <> -1 then
    invalid_arg "Tree.of_parents: bad root";
  let kids = Array.make graph_n [] in
  Array.iteri
    (fun v p ->
      if v <> root then begin
        if p < 0 || p >= graph_n then invalid_arg "Tree.of_parents: bad parent";
        kids.(p) <- v :: kids.(p)
      end)
    parent;
  let children = Array.map (fun l -> Array.of_list (List.rev l)) kids in
  let depth = Array.make graph_n 0 in
  let preorder = Array.make graph_n (-1) in
  let pos = Array.make graph_n (-1) in
  let stop = Array.make graph_n (-1) in
  let idx = ref 0 in
  let stack = Stack.create () in
  Stack.push (root, 0) stack;
  pos.(root) <- !idx;
  preorder.(!idx) <- root;
  incr idx;
  while not (Stack.is_empty stack) do
    let v, ci = Stack.pop stack in
    if ci < Array.length children.(v) then begin
      Stack.push (v, ci + 1) stack;
      let c = children.(v).(ci) in
      depth.(c) <- depth.(v) + 1;
      if !idx >= graph_n then invalid_arg "Tree.of_parents: not a tree";
      pos.(c) <- !idx;
      preorder.(!idx) <- c;
      incr idx;
      Stack.push (c, 0) stack
    end
    else stop.(v) <- !idx
  done;
  if !idx <> graph_n then invalid_arg "Tree.of_parents: does not span all nodes";
  {
    r_graph_n = graph_n;
    r_root = root;
    r_parent = parent;
    r_children = children;
    r_depth = depth;
    r_preorder = preorder;
    r_pos = pos;
    r_stop = stop;
  }

let ref_of_edge_ids g ~root ids =
  let n = Graph.n g in
  let adj = Array.make n [] in
  List.iter
    (fun id ->
      let u, v = Graph.endpoints g id in
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    ids;
  if List.length ids <> n - 1 then invalid_arg "Tree.of_edge_ids: wrong edge count";
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let q = Queue.create () in
  Queue.add root q;
  seen.(root) <- true;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun u ->
        if not seen.(u) then begin
          seen.(u) <- true;
          parent.(u) <- v;
          Queue.add u q
        end)
      adj.(v)
  done;
  if not (Array.for_all (fun b -> b) seen) then
    invalid_arg "Tree.of_edge_ids: edges do not span the graph";
  ref_of_parents ~graph_n:n ~root ~parent

(* [Tree.bfs_tree] before the CSR became the only adjacency: each node
   scans its incident edges by ascending edge id, and the first node to
   reach an unseen node becomes its parent.  The tree-shape golden tests
   were pinned on these trees. *)
let ref_bfs_tree g ~root =
  let n = Graph.n g in
  let incident = Array.make n [] in
  for id = Graph.m g - 1 downto 0 do
    let u, v = Graph.endpoints g id in
    incident.(u) <- v :: incident.(u);
    incident.(v) <- u :: incident.(v)
  done;
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let q = Queue.create () in
  Queue.add root q;
  seen.(root) <- true;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun u ->
        if not seen.(u) then begin
          seen.(u) <- true;
          parent.(u) <- v;
          Queue.add u q
        end)
      incident.(v)
  done;
  Tree.of_parents ~graph_n:n ~root ~parent

(* every field of a built tree against the oracle's *)
let tree_matches (t : Tree.t) r =
  t.Tree.graph_n = r.r_graph_n
  && t.Tree.root = r.r_root
  && t.Tree.parent = r.r_parent
  && t.Tree.children = r.r_children
  && t.Tree.depth = r.r_depth
  && t.Tree.preorder = r.r_preorder
  && t.Tree.pos = r.r_pos
  && t.Tree.stop = r.r_stop

let ref_partition (tree : Tree.t) ~target =
  let module Fragments = Mincut_mst.Fragments in
  if target < 1 then invalid_arg "Fragments.partition: target must be >= 1";
  let n = tree.Tree.graph_n in
  let pending = Array.make n 0 in
  let is_root = Array.make n false in
  for i = n - 1 downto 0 do
    let v = tree.Tree.preorder.(i) in
    let h =
      Array.fold_left
        (fun acc c -> if is_root.(c) then acc else max acc (pending.(c) + 1))
        0 tree.Tree.children.(v)
    in
    pending.(v) <- h;
    if h >= target then is_root.(v) <- true
  done;
  is_root.(tree.Tree.root) <- true;
  let frag_of = Array.make n (-1) in
  let index_of_root = Hashtbl.create 64 in
  let roots_rev = ref [] in
  let k = ref 0 in
  Array.iter
    (fun v ->
      if is_root.(v) then begin
        Hashtbl.add index_of_root v !k;
        roots_rev := v :: !roots_rev;
        incr k
      end)
    tree.Tree.preorder;
  let roots = Array.of_list (List.rev !roots_rev) in
  let depth_in_frag = Array.make n 0 in
  Array.iter
    (fun v ->
      if is_root.(v) then frag_of.(v) <- Hashtbl.find index_of_root v
      else begin
        let p = tree.Tree.parent.(v) in
        frag_of.(v) <- frag_of.(p);
        depth_in_frag.(v) <- depth_in_frag.(p) + 1
      end)
    tree.Tree.preorder;
  let members = Array.make !k [] in
  for v = n - 1 downto 0 do
    members.(frag_of.(v)) <- v :: members.(frag_of.(v))
  done;
  let ids = Array.map (fun ms -> List.fold_left min max_int ms) members in
  let frag_parent =
    Array.map
      (fun r ->
        let p = tree.Tree.parent.(r) in
        if p = -1 then -1 else frag_of.(p))
      roots
  in
  let frag_children = Array.make !k [] in
  Array.iteri
    (fun i p -> if p <> -1 then frag_children.(p) <- i :: frag_children.(p))
    frag_parent;
  let heights = Array.make !k 0 in
  Array.iteri (fun v d -> heights.(frag_of.(v)) <- max heights.(frag_of.(v)) d) depth_in_frag;
  {
    Fragments.tree;
    target;
    frag_of;
    roots;
    members;
    ids;
    frag_parent;
    frag_children;
    depth_in_frag;
    heights;
  }

(* every field of a partition against the oracle's ([tree] by
   identity: both were built on the same tree) *)
let partition_matches (a : Mincut_mst.Fragments.t) (b : Mincut_mst.Fragments.t) =
  let open Mincut_mst.Fragments in
  a.tree == b.tree && a.target = b.target && a.frag_of = b.frag_of && a.roots = b.roots
  && a.members = b.members && a.ids = b.ids && a.frag_parent = b.frag_parent
  && a.frag_children = b.frag_children
  && a.depth_in_frag = b.depth_in_frag
  && a.heights = b.heights

let ref_forest_of_parents parent =
  let n = Array.length parent in
  let kids = Array.make n [] in
  for v = n - 1 downto 0 do
    let p = parent.(v) in
    if p <> -1 then kids.(p) <- v :: kids.(p)
  done;
  { Mincut_congest.Primitives.parent; children = Array.map Array.of_list kids }

(* The exchange program before it learned to skip sorting an inbox that
   arrives in order: round 1 always sorts by sender. *)
let ref_exchange_program g ~values : ((int * 'a) list option, 'a) Mincut_congest.Network.program =
  {
    initial = (fun _ -> None);
    step =
      (fun ~node ~round ~inbox st ->
        if round = 0 then
          let nbrs = List.sort_uniq Int.compare (List.map fst (adj_list g node)) in
          (st, List.map (fun u -> (u, values.(node))) nbrs)
        else (Some (List.sort (fun (s, _) (s', _) -> Int.compare s s') inbox), []));
    halted = Option.is_some;
  }

(* F(v) and Step 2a's child-fragment items as [One_respect] built them
   before they became flat arrays: per-node lists, consed in ascending
   fragment order *)
let ref_f_sets (tree : Tree.t) (fr : Mincut_mst.Fragments.t) =
  let parent = tree.Tree.parent in
  let f_sets = Array.make (Tree.n_nodes tree) [] in
  Array.iteri
    (fun j r ->
      let v = ref parent.(r) in
      while !v <> -1 do
        f_sets.(!v) <- j :: f_sets.(!v);
        v := parent.(!v)
      done)
    fr.Mincut_mst.Fragments.roots;
  f_sets

let ref_child_fragment_items (tree : Tree.t) (fr : Mincut_mst.Fragments.t) =
  let items = Array.make (Tree.n_nodes tree) [] in
  Array.iteri
    (fun j r ->
      let attach = tree.Tree.parent.(r) in
      if attach <> -1 then items.(attach) <- j :: items.(attach))
    fr.Mincut_mst.Fragments.roots;
  items

(* a flat per-node list against the list oracle, order included *)
let csr_matches (c : Mincut_core.One_respect.csr) lists =
  let open Mincut_core.One_respect in
  let n = Array.length lists in
  c.off.(0) = 0
  && List.for_all
       (fun v ->
         let lo = c.off.(v) and hi = c.off.(v + 1) in
         hi >= lo && List.init (hi - lo) (fun i -> c.ids.(lo + i)) = lists.(v))
       (List.init n Fun.id)

(* Step 2b's downcast as [One_respect] ran it before it checked each id
   on arrival: a node's state is the chain of ids heard, newest first
   (the fragment root ... parent, then itself), checked once the run
   ends by walking it. *)
let ref_ancestor_downcast_program (links : Mincut_congest.Primitives.forest) :
    (int list, int) Mincut_congest.Network.program =
  let down = links.Mincut_congest.Primitives.children in
  {
    initial = (fun v -> [ v ]);
    step =
      (fun ~node ~round ~inbox chain ->
        match inbox with
        | (_, id) :: _ -> (id :: chain, Mincut_congest.Primitives.send_all down.(node) id)
        | [] ->
            ( chain,
              if round = 0 then Mincut_congest.Primitives.send_all down.(node) node else [] ));
    halted = (fun _ -> false);
  }

(* every id of [v]'s chain a same-fragment ancestor, strictly deepening;
   the chain's length *)
let rec ref_chain_length (tree : Tree.t) frag_of v above len = function
  | [] -> len
  | u :: rest ->
      assert (
        frag_of.(u) = frag_of.(v)
        && tree.Tree.pos.(u) <= tree.Tree.pos.(v)
        && tree.Tree.pos.(v) < tree.Tree.stop.(u));
      let d = tree.Tree.depth.(u) in
      assert (d > above);
      ref_chain_length tree frag_of v d (len + 1) rest

let ref_frag_ancestor_downcast ~cfg g tree links (fr : Mincut_mst.Fragments.t) =
  let frag_of = fr.Mincut_mst.Fragments.frag_of in
  let dif = fr.Mincut_mst.Fragments.depth_in_frag in
  let bound = (2 * Mincut_mst.Fragments.max_height fr) + 3 in
  let check v chain = assert (ref_chain_length tree frag_of v (-1) 0 chain = dif.(v) + 1) in
  snd
    (Mincut_congest.Network.run_bounded ~cfg ~words:(fun _ -> 1) ~result:check
       ~rounds:(max 1 bound) g (ref_ancestor_downcast_program links))
