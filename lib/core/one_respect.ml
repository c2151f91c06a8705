module Graph = Mincut_graph.Graph
module Tree = Mincut_graph.Tree
module Fragments = Mincut_mst.Fragments
module Cost = Mincut_congest.Cost
module Pipeline = Mincut_congest.Pipeline
module Primitives = Mincut_congest.Primitives

type stats = {
  n : int;
  bfs_height : int;
  fragment_count : int;
  max_fragment_height : int;
  merging_count : int;
  tf_prime_size : int;
  lca_case1 : int;
  lca_case2 : int;
  lca_case3 : int;
  max_lca_exchange : int;
  max_child_frag_load : int;
  max_ancestor_items : int;
  max_f_items : int;
  case2_lca_count : int;
}

type result = {
  cuts : int array;
  best_value : int;
  best_node : int;
  cost : Cost.t;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Shared fragment-level analysis                                      *)
(* ------------------------------------------------------------------ *)

type analysis = {
  fr : Fragments.t;
  f_sets : int list array;    (* F(v): fragments fully contained in v↓ *)
  is_merging : bool array;
  in_tfp : bool array;        (* member of T'F *)
  lta : int array;            (* lowest T'F ancestor-or-self *)
  tf_parent : int array;      (* parent within T'F; -1 at the tree root *)
  tf_depth : int array;       (* depth within T'F (T'F members only) *)
  merging_count : int;
  tfp_size : int;
}

let analyze ?target g tree =
  let n = Graph.n g in
  let target = match target with Some t -> t | None -> Params.sqrt_target ~n in
  let fr = Fragments.partition tree ~target in
  let k = Fragments.count fr in
  (* F(v): walk up from each fragment root; every proper ancestor fully
     contains that fragment. *)
  let f_sets = Array.make n [] in
  for j = 0 to k - 1 do
    let rec up v =
      if v <> -1 then begin
        f_sets.(v) <- j :: f_sets.(v);
        up tree.Tree.parent.(v)
      end
    in
    up tree.Tree.parent.(fr.Fragments.roots.(j))
  done;
  (* merging nodes: two children whose subtrees contain whole fragments *)
  let has_frag v =
    f_sets.(v) <> [] || fr.Fragments.roots.(fr.Fragments.frag_of.(v)) = v
  in
  let is_merging = Array.make n false in
  for v = 0 to n - 1 do
    let cnt =
      Array.fold_left
        (fun acc c -> if has_frag c then acc + 1 else acc)
        0 tree.Tree.children.(v)
    in
    is_merging.(v) <- cnt >= 2
  done;
  (* T'F: fragment roots and merging nodes, wired by lowest-ancestor *)
  let in_tfp = Array.make n false in
  Array.iter (fun r -> in_tfp.(r) <- true) fr.Fragments.roots;
  Array.iteri (fun v m -> if m then in_tfp.(v) <- true) is_merging;
  let lta = Array.make n (-1) in
  let tf_parent = Array.make n (-1) in
  let tf_depth = Array.make n 0 in
  Array.iter
    (fun v ->
      let p = tree.Tree.parent.(v) in
      lta.(v) <- (if in_tfp.(v) then v else lta.(p));
      if in_tfp.(v) then begin
        tf_parent.(v) <- (if p = -1 then -1 else lta.(p));
        tf_depth.(v) <- (if tf_parent.(v) = -1 then 0 else tf_depth.(tf_parent.(v)) + 1)
      end)
    tree.Tree.preorder;
  let merging_count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 is_merging in
  let tfp_size = Array.fold_left (fun a b -> if b then a + 1 else a) 0 in_tfp in
  { fr; f_sets; is_merging; in_tfp; lta; tf_parent; tf_depth; merging_count; tfp_size }

(* ------------------------------------------------------------------ *)
(* Step 5 LCA: the paper's three-case computation                      *)
(* ------------------------------------------------------------------ *)

(* Which of the paper's three cases resolves edge [(x, y)] whose LCA is
   [z], read off the fragment structure in O(1):
   - case 1: both endpoints share a fragment, and they exchange their
     within-fragment ancestor lists over the edge;
   - case 3: [z] lies in one endpoint's fragment, and that endpoint
     finds it locally from its F(·) knowledge of its in-fragment
     ancestors;
   - case 2: [z] is a merging node above both fragments, and the
     endpoints exchange their T'F ancestor chains over the edge. *)
let lca_case an z x y =
  let frag_of = an.fr.Fragments.frag_of in
  let fx = frag_of.(x) and fy = frag_of.(y) in
  if fx = fy then 1
  else
    let fz = frag_of.(z) in
    if fz = fx || fz = fy then 3 else 2

(* Exchange length of that case: case 1 sends the longer within-fragment
   ancestor list plus the fragment id; case 2 sends the longer T'F chain
   (the chain from [lta v] to the root has [tf_depth (lta v) + 1]
   members) plus the fragment id. *)
let lca_items an case x y =
  match case with
  | 1 ->
      let dif = an.fr.Fragments.depth_in_frag in
      1 + Int.max dif.(x) dif.(y)
  | 2 -> 2 + Int.max an.tf_depth.(an.lta.(x)) an.tf_depth.(an.lta.(y))
  | _ -> 0

let lca_by_fragments ?target g tree =
  let an = analyze ?target g tree in
  let lca = Tree.Lca.build tree in
  Array.map
    (fun (e : Graph.edge) ->
      let z = Tree.Lca.query lca e.u e.v in
      let case = lca_case an z e.u e.v in
      (z, case, lca_items an case e.u e.v))
    (Graph.edges g)

(* ------------------------------------------------------------------ *)
(* Real within-fragment programs (Steps 2a, 2b and 3)                  *)
(* ------------------------------------------------------------------ *)

(* The tree restricted to each fragment, computed once per run and
   shared by the three within-fragment programs: a forest whose roots
   are the fragment roots.  Steps 2a and 3 run [Primitives]' forest
   upcast and convergecast on it, all fragments in parallel (they are
   vertex-disjoint). *)
let frag_links tree (fr : Fragments.t) =
  let frag_of = fr.Fragments.frag_of in
  Primitives.forest_of_parents
    (Array.mapi
       (fun v p -> if p <> -1 && frag_of.(p) = frag_of.(v) then p else -1)
       tree.Tree.parent)

(* ------------------------------------------------------------------ *)
(* Real pipelined ancestor-id downcast within fragments (Step 2b)      *)
(* ------------------------------------------------------------------ *)

(* Every node learns the ids of all its within-fragment ancestors: each
   node floods its own id downward, one item per tree edge per round
   (the same payload may go to several children in one round — distinct
   edges).  The paper's "every node u sends a message containing its ID
   down the tree T" schedule, executed for real. *)
(* Ids arrive from the parent only, one per round, so a node never
   holds a backlog: it sends its own id in round 0 and forwards each
   id in the round it arrives.  A node at in-fragment depth [d] hears
   its parent in rounds 1..d and so sends to each child in exactly
   rounds 0..d.  Its state is the chain of ids heard so far, newest
   first and built by cons: the fragment root ... parent, then itself.
   A node with an empty inbox after round 0 returns its state
   physically unchanged. *)
let ancestor_downcast_program (links : Primitives.forest) :
    (int list, int) Mincut_congest.Network.program =
  let down = links.Primitives.children in
  let send node id = Array.fold_right (fun c acc -> (c, id) :: acc) down.(node) [] in
  {
    initial = (fun v -> [ v ]);
    step =
      (fun ~node ~round ~inbox chain ->
        match inbox with
        | (_, id) :: _ -> (id :: chain, send node id)
        | [] -> (chain, if round = 0 then send node node else []))
      ;
    halted = (fun _ -> false);
  }

let frag_ancestor_downcast ~cfg g tree links (fr : Fragments.t) =
  let n = Graph.n g in
  let frag_of = fr.Fragments.frag_of in
  let maxh = Fragments.max_height fr in
  let bound = (2 * maxh) + 3 in
  let chains, audit =
    Mincut_congest.Network.run_bounded ~cfg ~words:(fun _ -> 1) ~rounds:(max 1 bound) g
      (ancestor_downcast_program links)
  in
  (* verify: each node's chain = its within-fragment ancestors (incl
     self).  Fragments are subtrees, so those are exactly the
     depth_in_frag + 1 same-fragment ancestors of v; a chain of that
     length drawn from them, strictly deepening, is all of them. *)
  let dif = fr.Fragments.depth_in_frag in
  for v = 0 to n - 1 do
    let chain = chains.(v) in
    assert (List.length chain = dif.(v) + 1);
    ignore
      (List.fold_left
         (fun above u ->
           assert (frag_of.(u) = frag_of.(v) && Tree.is_ancestor tree u v);
           assert (tree.Tree.depth.(u) > above);
           tree.Tree.depth.(u))
         (-1) chain)
  done;
  audit

(* ------------------------------------------------------------------ *)
(* The full Theorem 2.1 pipeline                                       *)
(* ------------------------------------------------------------------ *)

(* Global BFS tree: the backbone for network-wide aggregation.  It
   depends only on the graph and the root, so a caller sweeping many
   trees of one graph builds it once and hands it to every [run]. *)
let backbone ?(params = Params.default) g ~root =
  if params.Params.run_real_primitives then
    Primitives.bfs_tree ~cfg:params.Params.congest g ~root
  else
    let t = Tree.bfs_tree g ~root in
    (t, Cost.scheduled "bfs-tree (scheduled)" (Tree.height t + 1))

let run ?(params = Params.default) ?target ?backbone:given g tree =
  let n = Graph.n g in
  if n < 2 then invalid_arg "One_respect.run: need n >= 2";
  let root = tree.Tree.root in
  let bfs_tree, c_bfs =
    match given with
    | None -> backbone ~params g ~root
    | Some ((t, c) as b) ->
        if t.Tree.root <> root then invalid_arg "One_respect.run: backbone rooted elsewhere";
        if Tree.n_nodes t <> n then invalid_arg "One_respect.run: backbone of another graph";
        (* an engine-run backbone is Executed, a fast-mode one Scheduled:
           one built under the other mode would charge the wrong cost *)
        let want = if params.Params.run_real_primitives then Cost.Executed else Cost.Scheduled in
        if not (List.for_all (fun (sp : Cost.span) -> sp.Cost.provenance = want) c.Cost.spans)
        then invalid_arg "One_respect.run: backbone built under other params";
        b
  in
  let hb = Tree.height bfs_tree in
  let an = analyze ?target g tree in
  let fr = an.fr in
  let links = if params.Params.run_real_primitives then Some (frag_links tree fr) else None in
  let k = Fragments.count fr in
  let maxh = Fragments.max_height fr in
  let dif = fr.Fragments.depth_in_frag in

  (* -------- Step 1: partition into fragments; learn ids; build TF --- *)
  let c_partition =
    Cost.charged "step1: KP partition (charged at KP bound)"
      (Params.kp_partition_rounds params ~n ~diameter:hb)
  in
  let c_frag_ids =
    (* min-id convergecast + downcast within each fragment *)
    Cost.scheduled "step1: fragment id agreement"
      (Pipeline.convergecast ~depth:maxh ~max_edge_load:1
      + Pipeline.broadcast ~depth:maxh ~items:1)
  in
  let c_tf =
    (* broadcast the k-1 inter-fragment edges to the whole network *)
    let items = max 0 (k - 1) in
    Cost.scheduled "step1: broadcast T_F (k-1 inter-fragment edges)"
      (Pipeline.upcast ~depth:hb ~items + Pipeline.broadcast ~depth:hb ~items)
  in

  (* -------- Step 2: F(v) and A(v) knowledge ------------------------- *)
  (* (a) upcast child-fragment lists within each fragment: per-edge load
     is the number of child fragments attached strictly below. *)
  let load_a = Array.make n 0 in
  Array.iteri
    (fun j r ->
      let attach = tree.Tree.parent.(r) in
      if attach <> -1 then begin
        ignore j;
        (* the message about this child fragment crosses every edge from
           the attach node up to its fragment root *)
        let rec up v =
          load_a.(v) <- load_a.(v) + 1;
          if dif.(v) > 0 then up tree.Tree.parent.(v)
        in
        up attach
      end)
    fr.Fragments.roots;
  let max_load_a = Array.fold_left max 0 load_a in
  let c_f_up =
    match links with
    | Some links ->
      (* execute the upcast for real: seed each attachment node with the
         ids of the child fragments hanging directly below it, pipeline
         them to the fragment roots, and check the roots learned exactly
         their T_F children *)
      let initial_items = Array.make n [] in
      Array.iteri
        (fun j r ->
          let attach = tree.Tree.parent.(r) in
          if attach <> -1 then initial_items.(attach) <- j :: initial_items.(attach))
        fr.Fragments.roots;
      (* run for the tallest fragment's height plus the most ids any one
         fragment carries *)
      let max_items =
        Array.fold_left
          (fun acc ms ->
            max acc
              (List.fold_left (fun a v -> a + List.length initial_items.(v)) 0 ms))
          0 fr.Fragments.members
      in
      let known, up_audit =
        Primitives.upcast ~cfg:params.Params.congest ~rounds:(max 1 (maxh + max_items + 2)) g
          links ~initial:initial_items
      in
      Array.iteri
        (fun i r ->
          let expected = List.sort Int.compare fr.Fragments.frag_children.(i) in
          let got =
            List.filter
              (fun j -> fr.Fragments.frag_parent.(j) = i)
              (Mincut_util.Intset.elements known.(r))
          in
          assert (List.sort Int.compare got = expected))
        fr.Fragments.roots;
      Cost.executed ~audit:up_audit "step2: upcast child-fragment lists (real)"
        up_audit.Mincut_congest.Network.rounds
    | None ->
      Cost.scheduled "step2: upcast child-fragment lists (F computation)"
        (Pipeline.convergecast ~depth:maxh ~max_edge_load:max_load_a)
  in
  (* (b) downcast ancestor ids: every node learns A(v) (its ancestors in
     its fragment and the parent fragment); per-edge load = |A(parent)| *)
  let a_size v =
    let fi = fr.Fragments.frag_of.(v) in
    let own = dif.(v) + 1 in
    let parent_part =
      let r = fr.Fragments.roots.(fi) in
      let attach = tree.Tree.parent.(r) in
      if attach = -1 then 0 else dif.(attach) + 1
    in
    own + parent_part
  in
  let max_a = ref 0 in
  for v = 0 to n - 1 do
    max_a := max !max_a (a_size v)
  done;
  let c_a_down =
    match links with
    | Some links ->
      (* the within-fragment part runs for real (and is verified); the
         one-fragment extension into the parent fragment follows the
         same schedule and is appended as its own scheduled span, so the
         executed leaf's rounds stay equal to its engine audit's *)
      let down_audit = frag_ancestor_downcast ~cfg:params.Params.congest g tree links fr in
      Cost.( ++ )
        (Cost.executed ~audit:down_audit "step2: downcast ancestor ids (real)"
           down_audit.Mincut_congest.Network.rounds)
        (Cost.scheduled "step2: downcast parent-fragment extension (scheduled)"
           (maxh + 1))
    | None ->
      Cost.scheduled "step2: downcast ancestor ids (A computation)"
        (Pipeline.convergecast ~depth:(2 * maxh) ~max_edge_load:!max_a)
  in
  (* (c) each node also learns F(u) for u in A(v): one message per
     fragment below the topmost element of A(v) *)
  let max_f_items =
    Array.fold_left
      (fun acc r -> max acc (List.length an.f_sets.(r)))
      0 fr.Fragments.roots
  in
  let c_f_down =
    Cost.scheduled "step2: downcast F(u) for ancestors"
      (Pipeline.convergecast ~depth:(2 * maxh) ~max_edge_load:max_f_items)
  in

  (* -------- Step 3: delta_down ---------------------------------------- *)
  let delta = Array.init n (Graph.weighted_degree g) in
  (* within-fragment subtree sums (one wave up each fragment) *)
  let frag_subtree_sum values =
    let out = Array.copy values in
    (* reverse preorder: add into the parent while staying in-fragment *)
    for i = n - 1 downto 1 do
      let v = tree.Tree.preorder.(i) in
      let p = tree.Tree.parent.(v) in
      if p <> -1 && fr.Fragments.frag_of.(p) = fr.Fragments.frag_of.(v) then
        out.(p) <- out.(p) + out.(v)
    done;
    out
  in
  let s_delta = frag_subtree_sum delta in
  let c_s_delta =
    match links with
    | Some links ->
      (* run the within-fragment wave for real on the engine: every
         fragment converges in parallel (they are vertex-disjoint) *)
      let real, wave_audit =
        Primitives.convergecast ~cfg:params.Params.congest ~words:(fun _ -> 2) ~combine:( + ) g
          links delta
      in
      assert (real = s_delta);
      Cost.executed ~audit:wave_audit "step3: within-fragment delta sums (real)"
        wave_audit.Mincut_congest.Network.rounds
    | None ->
      Cost.scheduled "step3: within-fragment delta sums"
        (Pipeline.convergecast ~depth:maxh ~max_edge_load:1)
  in
  let delta_frag = Array.make k 0 in
  for v = 0 to n - 1 do
    delta_frag.(fr.Fragments.frag_of.(v)) <- delta_frag.(fr.Fragments.frag_of.(v)) + delta.(v)
  done;
  let c_delta_bcast =
    Cost.scheduled "step3: broadcast delta(F_i) for all fragments"
      (Pipeline.upcast ~depth:hb ~items:k + Pipeline.broadcast ~depth:hb ~items:k)
  in
  let delta_down =
    Array.init n (fun v ->
        List.fold_left (fun acc j -> acc + delta_frag.(j)) s_delta.(v) an.f_sets.(v))
  in

  (* -------- Step 4: merging nodes and T'F ---------------------------- *)
  let c_merging =
    Cost.scheduled "step4: local merging-node detection" 1
  in
  let c_tfp =
    let items = an.merging_count + max 0 (an.tfp_size - 1) in
    Cost.scheduled "step4: broadcast merging nodes and T'F edges"
      (Pipeline.upcast ~depth:hb ~items + Pipeline.broadcast ~depth:hb ~items)
  in

  (* -------- Step 5: per-edge LCA and rho_down ------------------------- *)
  let rho = Array.make n 0 in
  let case_counts = [| 0; 0; 0 |] in
  let max_exchange = ref 0 in
  let case2_lcas = Hashtbl.create 64 in
  let lca = Tree.Lca.build tree in
  Graph.iter_edges
    (fun e ->
      let z = Tree.Lca.query lca e.u e.v in
      let case = lca_case an z e.u e.v in
      rho.(z) <- rho.(z) + e.w;
      case_counts.(case - 1) <- case_counts.(case - 1) + 1;
      max_exchange := Int.max !max_exchange (lca_items an case e.u e.v);
      if case = 2 then Hashtbl.replace case2_lcas z ())
    g;
  let c_lca =
    Cost.scheduled "step5: per-edge LCA (1 frag exchange + list exchanges)"
      (1 + Pipeline.exchange ~items:!max_exchange)
  in
  (* type (i): count case-2 messages over the BFS tree *)
  let m2 = Hashtbl.length case2_lcas in
  let c_type1 =
    Cost.scheduled "step5: count type-(i) messages over BFS tree"
      (Pipeline.convergecast ~depth:hb ~max_edge_load:(max 1 m2)
      + Pipeline.broadcast ~depth:hb ~items:(max 1 m2))
  in
  (* type (ii): pipelined within-fragment counting; per-edge load is the
     number of in-fragment ancestors *)
  let c_type2 =
    Cost.scheduled "step5: count type-(ii) messages within fragments"
      (Pipeline.convergecast ~depth:maxh ~max_edge_load:(maxh + 1))
  in
  (* rho_down by the same machinery as delta_down *)
  let s_rho = frag_subtree_sum rho in
  let rho_frag = Array.make k 0 in
  for v = 0 to n - 1 do
    rho_frag.(fr.Fragments.frag_of.(v)) <- rho_frag.(fr.Fragments.frag_of.(v)) + rho.(v)
  done;
  let rho_down =
    Array.init n (fun v ->
        List.fold_left (fun acc j -> acc + rho_frag.(j)) s_rho.(v) an.f_sets.(v))
  in
  let c_rho_down =
    Cost.scheduled "step5: rho_down aggregation (delta_down machinery)"
      (Pipeline.convergecast ~depth:maxh ~max_edge_load:1
      + Pipeline.upcast ~depth:hb ~items:k
      + Pipeline.broadcast ~depth:hb ~items:k)
  in

  (* -------- Finish: Karger's lemma, global minimum ------------------- *)
  let cuts = Array.init n (fun v -> delta_down.(v) - (2 * rho_down.(v))) in
  let best = ref (-1) in
  for v = 0 to n - 1 do
    if v <> root && (!best = -1 || cuts.(v) < cuts.(!best)) then best := v
  done;
  let c_min =
    Cost.scheduled "finish: global min convergecast + broadcast"
      (Pipeline.convergecast ~depth:hb ~max_edge_load:1
      + Pipeline.broadcast ~depth:hb ~items:1)
  in
  (* Exactly five top-level phase spans, matching the paper's Steps 1–5
     (Theorem 2.1).  The global BFS backbone is part of Step 1's setup;
     Karger's-lemma finish (the global minimum) closes Step 5.  Grouping
     is structural: the flat breakdown and the total are unchanged. *)
  let cost =
    Cost.sum
      [
        Cost.group "Step 1: partition into fragments, learn ids, build T_F"
          (Cost.sum [ c_bfs; c_partition; c_frag_ids; c_tf ]);
        Cost.group "Step 2: subtree-fragment knowledge F(v) and A(v)"
          (Cost.sum [ c_f_up; c_a_down; c_f_down ]);
        Cost.group "Step 3: delta_down via fragment aggregation"
          (Cost.sum [ c_s_delta; c_delta_bcast ]);
        Cost.group "Step 4: merging nodes and T'_F"
          (Cost.sum [ c_merging; c_tfp ]);
        Cost.group "Step 5: per-edge LCA, rho_down, global minimum"
          (Cost.sum [ c_lca; c_type1; c_type2; c_rho_down; c_min ]);
      ]
  in
  {
    cuts;
    best_value = cuts.(!best);
    best_node = !best;
    cost;
    stats =
      {
        n;
        bfs_height = hb;
        fragment_count = k;
        max_fragment_height = maxh;
        merging_count = an.merging_count;
        tf_prime_size = an.tfp_size;
        lca_case1 = case_counts.(0);
        lca_case2 = case_counts.(1);
        lca_case3 = case_counts.(2);
        max_lca_exchange = !max_exchange;
        max_child_frag_load = max_load_a;
        max_ancestor_items = !max_a;
        max_f_items;
        case2_lca_count = m2;
      };
  }
