module Graph = Mincut_graph.Graph
module Tree = Mincut_graph.Tree
module Fragments = Mincut_mst.Fragments
module Cost = Mincut_congest.Cost
module Pipeline = Mincut_congest.Pipeline
module Primitives = Mincut_congest.Primitives
module Scratch = Mincut_util.Scratch

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

(* Per-node fragment-id lists, flat: node [v]'s ids are
   [ids.(off.(v)) .. ids.(off.(v + 1) - 1)].  Both arrays come from the
   run's scratch frame. *)
type csr = { off : int array; ids : int array }

(* Fragment [j] is listed at the parent of its root and, with
   [~up_to_root], at every node above that too.  Counted first, then
   written from the back of each node's slice in ascending [j], so a
   slice lists its ids in descending order, as consing them did. *)
let fragment_lists sc (tree : Tree.t) (fr : Fragments.t) ~up_to_root =
  let n = Tree.n_nodes tree in
  let parent = tree.Tree.parent and roots = fr.Fragments.roots in
  let k = Fragments.count fr in
  let off = Scratch.filled sc (n + 1) 0 in
  for j = 0 to k - 1 do
    let v = ref parent.(roots.(j)) in
    while !v <> -1 do
      off.(!v + 1) <- off.(!v + 1) + 1;
      v := if up_to_root then parent.(!v) else -1
    done
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let ids = Scratch.ints sc off.(n) in
  let cur = Scratch.ints sc n in
  Array.blit off 1 cur 0 n;
  for j = 0 to k - 1 do
    let v = ref parent.(roots.(j)) in
    while !v <> -1 do
      cur.(!v) <- cur.(!v) - 1;
      ids.(cur.(!v)) <- j;
      v := if up_to_root then parent.(!v) else -1
    done
  done;
  { off; ids }

(* F(v): the fragments fully contained in v↓, those whose root is a
   proper descendant of [v] *)
let f_sets sc tree fr = fragment_lists sc tree fr ~up_to_root:true

(* Step 2a's seed: the child fragments hanging directly below each
   node *)
let child_fragment_items sc tree fr = fragment_lists sc tree fr ~up_to_root:false

type analysis = {
  fr : Fragments.t;
  f_sets : csr;               (* F(v): fragments fully contained in v↓ *)
  lta : int array;            (* lowest T'F ancestor-or-self *)
  tf_depth : int array;       (* depth within T'F (T'F members only) *)
  merging_count : int;
  tfp_size : int;
}

let analyze sc ?target g tree =
  let n = Graph.n g in
  let target = match target with Some t -> t | None -> Params.sqrt_target ~n in
  let fr = Fragments.partition tree ~target in
  let k = Fragments.count fr in
  let parent = tree.Tree.parent in
  let roots = fr.Fragments.roots and frag_of = fr.Fragments.frag_of in
  let f_sets = f_sets sc tree fr in
  let f_off = f_sets.off in
  (* T'F: merging nodes (two children whose subtrees contain whole
     fragments) and fragment roots, flagged 1, wired by lowest
     ancestor *)
  let in_tfp = Scratch.filled sc n 0 in
  let merging_count = ref 0 in
  for v = 0 to n - 1 do
    let kids = tree.Tree.children.(v) in
    let cnt = ref 0 in
    for i = 0 to Array.length kids - 1 do
      let c = kids.(i) in
      if f_off.(c + 1) > f_off.(c) || roots.(frag_of.(c)) = c then incr cnt
    done;
    if !cnt >= 2 then begin
      in_tfp.(v) <- 1;
      incr merging_count
    end
  done;
  for j = 0 to k - 1 do
    in_tfp.(roots.(j)) <- 1
  done;
  (* preorder sets every node's [lta] before its children read it; the
     root is a fragment root, so it is in T'F *)
  let lta = Scratch.ints sc n in
  let tf_depth = Scratch.filled sc n 0 in
  let tfp_size = ref 0 in
  for i = 0 to n - 1 do
    let v = tree.Tree.preorder.(i) in
    let p = parent.(v) in
    if in_tfp.(v) = 1 then begin
      incr tfp_size;
      lta.(v) <- v;
      let tp = if p = -1 then -1 else lta.(p) in
      tf_depth.(v) <- (if tp = -1 then 0 else tf_depth.(tp) + 1)
    end
    else lta.(v) <- lta.(p)
  done;
  let merging_count = !merging_count and tfp_size = !tfp_size in
  { fr; f_sets; lta; tf_depth; merging_count; tfp_size }

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
  Scratch.frame @@ fun sc ->
  let an = analyze sc ?target g tree in
  let lca = Tree.Lca.build sc tree in
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
   rounds 0..d; it hears its ancestors deepest first, the parent's id
   in round 1 and the fragment root's in round d.  Its state is the
   in-fragment depth of the last id heard ([d] before the first), and
   each id is checked as it arrives: a same-fragment ancestor exactly
   one level above the last.  A node whose state ends at 0 has so
   heard all [d] of its in-fragment ancestors.  A node with an empty
   inbox after round 0 returns its state unchanged. *)
let ancestor_downcast_program (tree : Tree.t) (links : Primitives.forest) (fr : Fragments.t) :
    (int, int) Mincut_congest.Network.program =
  let down = links.Primitives.children in
  let frag_of = fr.Fragments.frag_of and dif = fr.Fragments.depth_in_frag in
  let tin = tree.Tree.tin and tout = tree.Tree.tout in
  {
    initial = (fun v -> dif.(v));
    step =
      (fun ~node ~round ~inbox last ->
        match inbox with
        | (_, id) :: _ ->
            assert (
              frag_of.(id) = frag_of.(node)
              && tin.(id) <= tin.(node)
              && tout.(node) <= tout.(id)
              && dif.(id) = last - 1);
            (dif.(id), Primitives.send_all down.(node) id)
        | [] -> (last, if round = 0 then Primitives.send_all down.(node) node else []))
      ;
    halted = (fun _ -> false);
  }

let frag_ancestor_downcast ~cfg g tree links (fr : Fragments.t) =
  let maxh = Fragments.max_height fr in
  let bound = (2 * maxh) + 3 in
  (* the step checked every id as it arrived; a node that ends at depth
     0 heard its whole in-fragment ancestor path *)
  let _, audit =
    Mincut_congest.Network.run_bounded ~cfg ~words:(fun _ -> 1)
      ~result:(fun _ last -> assert (last = 0))
      ~rounds:(max 1 bound) g (ancestor_downcast_program tree links fr)
  in
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

(* [acc] plus [per_frag] summed over the fragment ids [ids.(i .. hi - 1)] *)
let rec add_frags per_frag ids acc i hi =
  if i >= hi then acc else add_frags per_frag ids (acc + per_frag.(ids.(i))) (i + 1) hi

(* the ids [ids.(lo .. hi - 1)] as a list, in order *)
let rec slice_list ids lo hi acc =
  if hi <= lo then acc else slice_list ids lo (hi - 1) (ids.(hi - 1) :: acc)

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
  (* every per-node int temporary of the run comes from this frame; only
     [cuts] and the cost leave it *)
  Scratch.frame @@ fun sc ->
  let an = analyze sc ?target g tree in
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
  let load_a = Scratch.filled sc n 0 in
  for j = 0 to k - 1 do
    (* the message about this child fragment crosses every edge from
       the attach node up to its fragment root *)
    let v = ref tree.Tree.parent.(fr.Fragments.roots.(j)) in
    while !v <> -1 do
      load_a.(!v) <- load_a.(!v) + 1;
      v := if dif.(!v) > 0 then tree.Tree.parent.(!v) else -1
    done
  done;
  let max_load_a = ref 0 in
  for v = 0 to n - 1 do
    max_load_a := max !max_load_a load_a.(v)
  done;
  let max_load_a = !max_load_a in
  let c_f_up =
    match links with
    | Some links ->
      (* execute the upcast for real: seed each attachment node with the
         ids of the child fragments hanging directly below it, pipeline
         them to the fragment roots, and check the roots learned exactly
         their T_F children *)
      let items = child_fragment_items sc tree fr in
      let off = items.off in
      (* run for the tallest fragment's height plus the most ids any one
         fragment carries *)
      let max_items =
        Array.fold_left
          (fun acc ms -> max acc (List.fold_left (fun a v -> a + off.(v + 1) - off.(v)) 0 ms))
          0 fr.Fragments.members
      in
      let known, up_audit =
        Primitives.upcast ~cfg:params.Params.congest ~rounds:(max 1 (maxh + max_items + 2)) g
          links ~initial:(fun v -> slice_list items.ids off.(v) off.(v + 1) [])
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
  let f_off = an.f_sets.off and f_ids = an.f_sets.ids in
  let max_f_items =
    Array.fold_left (fun acc r -> max acc (f_off.(r + 1) - f_off.(r))) 0 fr.Fragments.roots
  in
  let c_f_down =
    Cost.scheduled "step2: downcast F(u) for ancestors"
      (Pipeline.convergecast ~depth:(2 * maxh) ~max_edge_load:max_f_items)
  in

  (* -------- Step 3: delta_down ---------------------------------------- *)
  let delta = Scratch.ints sc n in
  for v = 0 to n - 1 do
    delta.(v) <- Graph.weighted_degree g v
  done;
  (* within-fragment subtree sums (one wave up each fragment) *)
  let frag_subtree_sum values =
    let out = Scratch.ints sc n in
    Array.blit values 0 out 0 n;
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
      for v = 0 to n - 1 do
        assert (real.(v) = s_delta.(v))
      done;
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
  let rho = Scratch.filled sc n 0 in
  let case_counts = [| 0; 0; 0 |] in
  let max_exchange = ref 0 in
  (* distinct case-2 LCAs: a per-node flag, counted as it is first set *)
  let case2_at = Scratch.filled sc n 0 in
  let m2 = ref 0 in
  let lca = Tree.Lca.build sc tree in
  let edges = Graph.edges g in
  for i = 0 to Array.length edges - 1 do
    let e = edges.(i) in
    let z = Tree.Lca.query lca e.u e.v in
    let case = lca_case an z e.u e.v in
    rho.(z) <- rho.(z) + e.w;
    case_counts.(case - 1) <- case_counts.(case - 1) + 1;
    max_exchange := Int.max !max_exchange (lca_items an case e.u e.v);
    if case = 2 && case2_at.(z) = 0 then begin
      case2_at.(z) <- 1;
      incr m2
    end
  done;
  let m2 = !m2 in
  let c_lca =
    Cost.scheduled "step5: per-edge LCA (1 frag exchange + list exchanges)"
      (1 + Pipeline.exchange ~items:!max_exchange)
  in
  (* type (i): count case-2 messages over the BFS tree *)
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
  let c_rho_down =
    Cost.scheduled "step5: rho_down aggregation (delta_down machinery)"
      (Pipeline.convergecast ~depth:maxh ~max_edge_load:1
      + Pipeline.upcast ~depth:hb ~items:k
      + Pipeline.broadcast ~depth:hb ~items:k)
  in

  (* -------- Finish: Karger's lemma, global minimum ------------------- *)
  (* C(v↓) = δ↓(v) − 2ρ↓(v), each a within-fragment sum plus the
     whole fragments of F(v) *)
  let cuts = Array.make n 0 in
  for v = 0 to n - 1 do
    let lo = f_off.(v) and hi = f_off.(v + 1) in
    let delta_down = add_frags delta_frag f_ids s_delta.(v) lo hi in
    let rho_down = add_frags rho_frag f_ids s_rho.(v) lo hi in
    cuts.(v) <- delta_down - (2 * rho_down)
  done;
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
