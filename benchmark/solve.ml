(* solve-dense and solve-deep: graph bytes in, exact λ out.

   One op is the whole client path of a one-shot solve: a DIMACS string
   is parsed ([Dimacs.of_string]), solved by the paper's exact pipeline
   ([Api.min_cut], [Params.default], so BFS, leader election, the first
   MST and the fragment aggregations run on the CONGEST engine) and
   certified ([Api.verify]).  The two workloads differ only in their
   graph families, chosen to load different factors of the
   Õ((√n+D)·poly λ) cost:

   - solve-dense: supercritical G(n, 0.3) with n 96–144 and planted cuts
     (λ 1–6 across two G(48–72, 0.4) halves), diameter 2–5.  Every
     graph's packing budget (2·λ̂·⌈log₂ n⌉ trees for the minimum
     weighted degree λ̂) sits at its cap of 96, so the budget does not
     swing with the seed, and Thorup's packing — the poly λ factor — is
     a fifth to a quarter of an op;
   - solve-deep: tori with sides 12–18 (diameter 12–18, λ 4) and paths
     of 16–32 8-cliques (diameter 31–63, λ 2).  The 1-respecting sweeps
     over the Kutten–Peleg fragments — the √n+D factor — are ~90% of an
     op and packing is 4–10%.

   A pass is 12 inputs, two families × 6 sizes spread evenly over their
   ranges; the seed draws the random structure, node labels and edge
   order, never the sizes.  The pass is the cycle: an untraced run
   repeats it until the time is up, at least [min_cycles] times, and
   reports each input's median time at the [Pace] reference speed, the
   kernel timed between every two ops.  The traced run replays the ops
   through [Exact.run]'s public call order with a span around each
   call. *)

module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Dimacs = Mincut_graph.Dimacs
module Tree = Mincut_graph.Tree
module Bfs = Mincut_graph.Bfs
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Bitset = Mincut_util.Bitset
module Hash = Mincut_util.Hash
module Cost = Mincut_congest.Cost
module Primitives = Mincut_congest.Primitives
module Tree_packing = Mincut_treepack.Tree_packing
module Boruvka_dist = Mincut_mst.Boruvka_dist
module Api = Mincut_core.Api
module Params = Mincut_core.Params
module Exact = Mincut_core.Exact
module One_respect = Mincut_core.One_respect
module One_respect_seq = Mincut_core.One_respect_seq
open Common

type spec =
  | Gnp of int * float
  | Planted of int * int * float  (** n, planted cut edges, p inside a half *)
  | Complete of int
  | Torus of int
  | Cliques of int * int  (** clique size, path length *)

let sizes = 6

(* rung i of [sizes] spread evenly over lo..hi *)
let rung lo hi i = lo + ((((hi - lo) * i) + ((sizes - 1) / 2)) / (sizes - 1))

let dense =
  Array.append
    (Array.init sizes (fun i -> Gnp (rung 96 144 i, 0.3)))
    (Array.init sizes (fun i -> Planted (2 * rung 48 72 i, 1 + (i mod 6), 0.4)))

let deep =
  Array.append
    (Array.init sizes (fun i -> Torus (rung 12 18 i)))
    (Array.init sizes (fun i -> Cliques (8, rung 16 32 i)))

let build rng = function
  | Gnp (n, p) -> Generators.gnp_connected ~rng n p
  | Planted (n, cut_edges, p_in) -> Generators.planted_cut ~rng ~n ~cut_edges ~p_in ()
  | Complete n -> Generators.complete n
  | Torus s -> Generators.torus s s
  | Cliques (clique, length) -> Generators.path_of_cliques ~clique ~length

let params = Params.default

(* input i of a pass visits the shapes with stride 7 (coprime to 12), so
   consecutive ops mix families and sizes *)
let input ~shapes ~seed i =
  let count = Array.length shapes in
  let rng = item_rng ~seed ~stream:1 i in
  let g = build rng shapes.(i * 7 mod count) in
  Dimacs.to_string (scramble rng g)

let inputs ~shapes ~seed = Array.init (Array.length shapes) (input ~shapes ~seed)

(* what a solve answered, as the oracle and the shadow compare it *)
type answer = {
  item : int;
  value : int;
  rounds : int;
  side : Bitset.t;
  breakdown : int64;  (** digest of the flat cost breakdown *)
  verified : bool;
}

let digest_breakdown bd =
  let h = Hash.create () in
  List.iter
    (fun (label, r) ->
      Hash.add_string h label;
      Hash.add_int h r)
    bd;
  Hash.value h

let answer_of item (s : Api.summary) verified =
  {
    item;
    value = s.Api.value;
    rounds = s.Api.rounds;
    side = s.Api.side;
    breakdown = digest_breakdown s.Api.breakdown;
    verified;
  }

(* ---- the traced shadow: Exact.run's order, one span per call ------- *)

type shadow_stats = {
  trees : int;
  useful : int;  (** trees whose 1-respecting minimum equals the answer *)
  first_useful : int;  (** 1-based index of the first such tree *)
  steps : int array;  (** rounds of One_respect's five phase spans *)
  boruvka_rounds : int;
  flood_rounds : int;
}

let span = Trace.span

let shadow_exact g =
  let n = Graph.n g in
  let trees =
    Tree_packing.recommended_trees ~n ~lambda_hint:(Exact.min_weighted_degree g)
  in
  let packing = span "treepack.greedy" (fun () -> Tree_packing.greedy g ~trees) in
  let diameter = span "graph.bfs" (fun () -> Tree.height (Tree.bfs_tree g ~root:0)) in
  let cfg = params.Params.congest in
  let learned, flood =
    span "congest.flood_max" (fun () ->
        Primitives.flood_max ~cfg g ~values:(Array.init n Fun.id))
  in
  assert (Array.for_all (fun x -> x = n - 1) learned);
  let c_leader =
    let audit = match flood.Cost.spans with [ s ] -> s.Cost.audit | _ -> None in
    Cost.executed ?audit "leader election (real flood-max)" flood.Cost.rounds
  in
  let mst = span "mst.boruvka" (fun () -> Boruvka_dist.run ~cfg g) in
  assert (
    List.sort Int.compare mst.Boruvka_dist.edge_ids
    = List.sort Int.compare packing.Tree_packing.trees.(0));
  let c_pack =
    Cost.( ++ )
      (Cost.group "tree 1: real distributed Boruvka MST" mst.Boruvka_dist.cost)
      (Tree_packing.distributed_cost ~n ~diameter ~trees:(trees - 1)
         ~per_tree_rounds:(Params.kp_mst_rounds params ~n ~diameter))
  in
  let per_tree =
    Array.map
      (fun ids ->
        let tree =
          span "graph.tree_of_edge_ids" (fun () -> Tree.of_edge_ids g ~root:0 ids)
        in
        span "core.one_respect" (fun () -> One_respect.run ~params g tree))
      packing.Tree_packing.trees
  in
  let best = ref 0 in
  let sweep = ref Cost.zero in
  Array.iteri
    (fun i (r : One_respect.result) ->
      sweep :=
        Cost.( ++ ) !sweep
          (Cost.group
             (Printf.sprintf "tree %d: 1-respecting cut (Theorem 2.1)" (i + 1))
             r.One_respect.cost);
      if r.One_respect.best_value < per_tree.(!best).One_respect.best_value then
        best := i)
    per_tree;
  let cost =
    Cost.( ++ )
      (Cost.( ++ ) c_leader c_pack)
      (Cost.group "per-tree 1-respecting cuts" !sweep)
  in
  let r = per_tree.(!best) in
  let tree =
    span "graph.tree_of_edge_ids" (fun () ->
        Tree.of_edge_ids g ~root:0 packing.Tree_packing.trees.(!best))
  in
  let side =
    span "core.side_of" (fun () -> One_respect_seq.side_of tree r.One_respect.best_node)
  in
  let value = r.One_respect.best_value in
  let steps = Array.make 5 0 in
  let useful = ref 0 and first = ref 0 in
  Array.iteri
    (fun i (t : One_respect.result) ->
      if t.One_respect.best_value = value then begin
        incr useful;
        if !first = 0 then first := i + 1
      end;
      List.iteri
        (fun k (sp : Cost.span) -> if k < 5 then steps.(k) <- steps.(k) + sp.Cost.rounds)
        t.One_respect.cost.Cost.spans)
    per_tree;
  ( {
      Api.algorithm = Api.Exact_small_lambda;
      value;
      side;
      rounds = cost.Cost.rounds;
      cost;
      breakdown = Cost.breakdown cost;
    },
    {
      trees;
      useful = !useful;
      first_useful = !first;
      steps;
      boruvka_rounds = mst.Boruvka_dist.cost.Cost.rounds;
      flood_rounds = flood.Cost.rounds;
    } )

(* ---- one op, untraced and traced ----------------------------------- *)

type timed = { answer : answer; ms : float; gc : gc_work }

let untraced_op inputs item =
  let m = gc_mark () in
  let a = now () in
  let g = Dimacs.of_string inputs.(item) in
  let s = Api.min_cut ~params g in
  let verified = Api.verify g s in
  let ms = (now () -. a) *. 1000.0 in
  let gc = gc_since m in
  { answer = answer_of item s verified; ms; gc }

let traced_op inputs k item =
  Trace.set_op k;
  let a = now () in
  let g = span "graph.dimacs_parse" (fun () -> Dimacs.of_string inputs.(item)) in
  if not (span "graph.bfs" (fun () -> Bfs.is_connected g)) then
    failwith "solve: generated input is disconnected";
  let s, stats = shadow_exact g in
  let verified = span "core.verify" (fun () -> Api.verify g s) in
  let ms = (now () -. a) *. 1000.0 in
  (answer_of item s verified, ms, stats)

(* ---- checks --------------------------------------------------------- *)

let check inputs answers =
  let truth = Hashtbl.create 128 in
  let lambda item =
    match Hashtbl.find_opt truth item with
    | Some l -> l
    | None ->
        let l = Stoer_wagner.min_cut_value (Dimacs.of_string inputs.(item)) in
        Hashtbl.replace truth item l;
        l
  in
  Array.to_list answers
  |> List.filter_map (fun a ->
         let l = lambda a.item in
         if not a.verified then
           Some (Printf.sprintf "input %d: Api.verify rejected the summary" a.item)
         else if a.value <> l then
           Some (Printf.sprintf "input %d: λ=%d but Stoer–Wagner says %d" a.item a.value l)
         else None)

let same a b =
  a.item = b.item && a.value = b.value && a.rounds = b.rounds
  && Bitset.equal a.side b.side && Int64.equal a.breakdown b.breakdown
  && a.verified = b.verified

let layer_names =
  [
    ("graph.dimacs_parse", [ `Ms ]);
    ("graph.bfs", [ `Ms ]);
    ("treepack.greedy", [ `Ms; `Mwords ]);
    ("congest.flood_max", [ `Ms ]);
    ("mst.boruvka", [ `Ms ]);
    ("graph.tree_of_edge_ids", [ `Ms ]);
    ("core.one_respect", [ `Ms; `Calls; `Mwords ]);
    ("core.side_of", [ `Ms ]);
    ("core.verify", [ `Ms ]);
  ]

(* The closed loop cycles through the inputs until the time is up; an
   untraced run may stop inside a pass, a traced run ends on a whole
   one.  Traced, every op runs untraced and then through the shadow,
   back to back, so both see the same heap and caches.  The reference
   set of [congest_rounds] is the first [reference_ops] inputs made from
   [reference_seed], solved after an untraced loop and checked like the
   rest. *)
let reference_ops = 6

let run ~shapes ~seed ~seconds ~trace ~write_trace =
  let setup_s, inputs = timed_setup ~reps:setup_reps (fun () -> inputs ~shapes ~seed) in
  let count = Array.length inputs in
  let min_ops = if trace then count else count * min_cycles in
  let pace = Pace.create () in
  let t0 = now () in
  let ops = ref [] and shadows = ref [] and k = ref 0 in
  if trace then Trace.start ();
  while (trace && !k mod count <> 0) || keep_going ~t0 ~seconds ~min_ops !k do
    let item = !k mod count in
    let block = Pace.block pace in
    let o = untraced_op inputs item in
    ops := (o, block) :: !ops;
    Pace.after_op pace o.ms;
    if trace then shadows := traced_op inputs !k item :: !shadows;
    incr k
  done;
  Trace.stop ();
  let peak_rss_kb = peak_rss_kb () in
  let factors, slowdown = Pace.finish pace in
  let scaled = List.rev_map (fun (o, block) -> o.ms *. factors.(block)) !ops in
  let ops = Array.of_list (List.rev_map fst !ops) in
  let n = Array.length ops in
  let times = Array.map (fun o -> o.ms) ops in
  let latency_ms, busy_ms =
    typical ~items:count (List.mapi (fun i ms -> (i mod count, ms, ms)) scaled)
  in
  let failures = check inputs (Array.map (fun o -> o.answer) ops) in
  let rounds, reference_failures =
    if trace then (0.0, [])
    else begin
      let reference = Array.init reference_ops (input ~shapes ~seed:reference_seed) in
      let answers = Array.init reference_ops (fun i -> (untraced_op reference i).answer) in
      ( float_of_int (Array.fold_left (fun acc a -> acc + a.rounds) 0 answers),
        List.map (( ^ ) "reference ") (check reference answers) )
    end
  in
  let layers, shadow_failures =
    if not trace then ([], [])
    else begin
      let shadows = Array.of_list (List.rev !shadows) in
      let spans = Trace.recorded () in
      write_trace spans;
      let mismatches =
        List.filter_map
          (fun i ->
            if same ops.(i).answer ((fun (a, _, _) -> a) shadows.(i)) then None
            else Some (Printf.sprintf "op %d: traced shadow differs from the untraced answer" i))
          (List.init n Fun.id)
      in
      let stimes = Array.map (fun (_, ms, _) -> ms) shadows in
      let total f = Array.fold_left (fun acc (_, _, s) -> acc + f s) 0 shadows in
      let per_op f = float_of_int (total f) /. float_of_int n in
      ( layer_metrics ~ops:n ~traced_ms:(Array.fold_left ( +. ) 0.0 stimes) spans layer_names
        @ [
            ("treepack.trees", per_op (fun s -> s.trees));
            ("treepack.useful_frac", ratio (total (fun s -> s.useful)) (total (fun s -> s.trees)));
            ("treepack.first_useful", per_op (fun s -> s.first_useful));
            ("mst.boruvka.rounds", per_op (fun s -> s.boruvka_rounds));
            ("congest.flood_max.rounds", per_op (fun s -> s.flood_rounds));
          ]
        @ List.init 5 (fun k ->
              ( Printf.sprintf "core.one_respect.step%d.rounds" (k + 1),
                per_op (fun s -> s.steps.(k)) ))
        @ gc_layers (Array.map (fun o -> o.gc) ops)
        @ [ overhead ~untraced:times ~traced:stimes ],
        mismatches )
    end
  in
  {
    attempted = (if trace then 2 * n else n + reference_ops);
    failures = failures @ reference_failures @ shadow_failures;
    timed_ops = n;
    latency_ms;
    busy_ms;
    slowdown;
    rounds;
    setup_s;
    peak_rss_kb;
    layers;
    digest = digest_strings inputs;
  }
