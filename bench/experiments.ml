(* The experiment harness: one function per table/figure of
   EXPERIMENTS.md, each printing the rows/series it defines. *)

module Graph = Mincut_graph.Graph
module Tree = Mincut_graph.Tree
module Generators = Mincut_graph.Generators
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Bitset = Mincut_util.Bitset
module Rng = Mincut_util.Rng
module Stats = Mincut_util.Stats
module Table = Mincut_util.Table
module Cost = Mincut_congest.Cost
module Config = Mincut_congest.Config
module Primitives = Mincut_congest.Primitives
module Network = Mincut_congest.Network
module Fragments = Mincut_mst.Fragments
module Boruvka_dist = Mincut_mst.Boruvka_dist
module Tree_packing = Mincut_treepack.Tree_packing
module One_respect = Mincut_core.One_respect
module Exact = Mincut_core.Exact
module Approx = Mincut_core.Approx
module Ghaffari_kuhn = Mincut_core.Ghaffari_kuhn
module Su = Mincut_core.Su
module Params = Mincut_core.Params

let fast = Params.fast

(* ------------------------------------------------------------------ *)
(* T1: exactness against ground truth                                  *)
(* ------------------------------------------------------------------ *)

let t1 () =
  let t =
    Table.create ~title:"T1: exact distributed min cut vs Stoer-Wagner (ground truth)"
      ~columns:[ "graph"; "n"; "m"; "D"; "lambda(SW)"; "lambda(dist)"; "agree"; "trees" ]
  in
  let all_ok = ref true in
  List.iter
    (fun (name, g) ->
      let sw = (Stoer_wagner.run g).Stoer_wagner.value in
      let r = Exact.run ~params:fast g in
      if r.Exact.value <> sw then all_ok := false;
      Table.add_row t
        [
          name;
          string_of_int (Graph.n g);
          string_of_int (Graph.m g);
          string_of_int (Workloads.diameter_of g);
          string_of_int sw;
          string_of_int r.Exact.value;
          (if r.Exact.value = sw then "yes" else "NO");
          string_of_int r.Exact.trees_used;
        ])
    (Workloads.t1_suite ());
  Table.print t;
  Printf.printf "T1 verdict: %s\n\n" (if !all_ok then "all exact" else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* T2: round complexity scaling with n (Theorem 2.1)                   *)
(* ------------------------------------------------------------------ *)

let t2 () =
  let t =
    Table.create
      ~title:
        "T2: Theorem 2.1 rounds on G(n, 8 ln n / n) -- rounds / (sqrt n + D) should stay \
         near-flat (up to polylog)"
      ~columns:[ "family"; "n"; "D"; "sqrt(n)+D"; "rounds(1-respect)"; "ratio" ]
  in
  let series = ref [] in
  let row family g =
    let n = Graph.n g in
    let tree = Tree.bfs_tree g ~root:0 in
    let r = One_respect.run ~params:fast g tree in
    let base = Workloads.sqrt_n_plus_d g in
    let rounds = r.One_respect.cost.Cost.rounds in
    if family = "gnp" then series := (float_of_int n, float_of_int rounds) :: !series;
    Table.add_row t
      [
        family;
        string_of_int n;
        string_of_int (Workloads.diameter_of g);
        Table.fmt_float base;
        string_of_int rounds;
        Table.fmt_ratio (float_of_int rounds /. base);
      ]
  in
  List.iter
    (fun n -> row "gnp" (Workloads.gnp_supercritical ~seed:(n + 1) n))
    [ 64; 128; 256; 512; 1024; 2048; 4096 ];
  List.iter (fun k -> row "torus" (Generators.torus k k)) [ 8; 16; 32; 64 ];
  Table.print t;
  let expo = Stats.growth_exponent (Array.of_list (List.rev !series)) in
  Printf.printf
    "T2 growth exponent of rounds vs n: %.2f (0.5 = sqrt scaling; 1.0 would be linear)\n\n"
    expo

(* ------------------------------------------------------------------ *)
(* T3: the D term                                                      *)
(* ------------------------------------------------------------------ *)

let t3 () =
  let t =
    Table.create
      ~title:"T3: rounds track the diameter (path-of-cliques, lambda fixed at 2)"
      ~columns:[ "n"; "D"; "sqrt(n)+D"; "rounds(1-respect)"; "ratio" ]
  in
  List.iter
    (fun length ->
      let g = Workloads.cliques_path ~length in
      let tree = Tree.bfs_tree g ~root:0 in
      let r = One_respect.run ~params:fast g tree in
      let base = Workloads.sqrt_n_plus_d g in
      Table.add_row t
        [
          string_of_int (Graph.n g);
          string_of_int (Workloads.diameter_of g);
          Table.fmt_float base;
          string_of_int r.One_respect.cost.Cost.rounds;
          Table.fmt_ratio (float_of_int r.One_respect.cost.Cost.rounds /. base);
        ])
    [ 4; 8; 16; 32; 64; 128 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* T4: poly(lambda) dependence of the exact algorithm                  *)
(* ------------------------------------------------------------------ *)

let t4 () =
  let t =
    Table.create
      ~title:
        "T4: exact algorithm vs lambda (planted cuts, n=256): trees scale with lambda, \
         per-tree rounds do not"
      ~columns:
        [ "lambda"; "lambda(dist)"; "trees"; "total rounds"; "rounds/tree"; "exact?" ]
  in
  List.iter
    (fun lambda ->
      let g = Workloads.planted ~seed:lambda ~n:256 ~lambda in
      let sw = (Stoer_wagner.run g).Stoer_wagner.value in
      let trees = Tree_packing.recommended_trees ~n:256 ~lambda_hint:lambda in
      let r = Exact.run ~params:fast ~trees g in
      Table.add_row t
        [
          string_of_int sw;
          string_of_int r.Exact.value;
          string_of_int trees;
          string_of_int r.Exact.cost.Cost.rounds;
          string_of_int (r.Exact.cost.Cost.rounds / trees);
          (if r.Exact.value = sw then "yes" else "NO");
        ])
    [ 1; 2; 3; 4; 5; 6; 8 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* F1: algorithm comparison series                                     *)
(* ------------------------------------------------------------------ *)

let f1 () =
  let t =
    Table.create
      ~title:
        "F1: rounds series, ours vs baselines on G(n, 8 ln n / n) (quality in \
         parentheses where ground truth is affordable)"
      ~columns:[ "n"; "exact"; "approx(0.5)"; "gk(0.5)"; "su(0.5)"; "cut e/a/g/s"; "lambda" ]
  in
  List.iter
    (fun n ->
      let g = Workloads.gnp_supercritical ~seed:(2 * n) n in
      let exact = Exact.run ~params:fast ~trees:8 g in
      let approx = Approx.run ~params:fast ~trees:8 ~rng:(Rng.create 1) ~epsilon:0.5 g in
      let gk = Ghaffari_kuhn.run ~params:fast ~epsilon:0.5 g in
      let su = Su.run ~params:fast ~rng:(Rng.create 2) ~epsilon:0.5 g in
      let lambda = if n <= 512 then string_of_int (Stoer_wagner.run g).Stoer_wagner.value else "-" in
      Table.add_row t
        [
          string_of_int n;
          string_of_int exact.Exact.cost.Cost.rounds;
          string_of_int approx.Approx.cost.Cost.rounds;
          string_of_int gk.Ghaffari_kuhn.cost.Cost.rounds;
          string_of_int su.Su.cost.Cost.rounds;
          Printf.sprintf "%d/%d/%d/%d" exact.Exact.value approx.Approx.value
            gk.Ghaffari_kuhn.value su.Su.value;
          lambda;
        ])
    [ 64; 128; 256; 512; 1024 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* F2: approximation quality vs epsilon                                *)
(* ------------------------------------------------------------------ *)

let f2 () =
  let t =
    Table.create
      ~title:
        "F2: observed approximation ratio vs epsilon (planted n=128 lambda=4, 5 seeds \
         each; ours should hug 1.0, GK may exceed it but stays below 2+eps)"
      ~columns:[ "epsilon"; "ours mean"; "ours worst"; "gk mean"; "gk worst"; "bound gk" ]
  in
  List.iter
    (fun epsilon ->
      let ratios_ours = ref [] and ratios_gk = ref [] in
      for seed = 1 to 5 do
        let g = Workloads.planted ~seed ~n:128 ~lambda:4 in
        let lambda = float_of_int (Stoer_wagner.run g).Stoer_wagner.value in
        let a = Approx.run ~params:fast ~trees:16 ~rng:(Rng.create seed) ~epsilon g in
        let gk = Ghaffari_kuhn.run ~params:fast ~epsilon g in
        ratios_ours := (float_of_int a.Approx.value /. lambda) :: !ratios_ours;
        ratios_gk := (float_of_int gk.Ghaffari_kuhn.value /. lambda) :: !ratios_gk
      done;
      let s_ours = Stats.summarize (Array.of_list !ratios_ours) in
      let s_gk = Stats.summarize (Array.of_list !ratios_gk) in
      Table.add_row t
        [
          Printf.sprintf "%.2f" epsilon;
          Table.fmt_ratio s_ours.Stats.mean;
          Table.fmt_ratio s_ours.Stats.max;
          Table.fmt_ratio s_gk.Stats.mean;
          Table.fmt_ratio s_gk.Stats.max;
          Printf.sprintf "%.2f" (2.0 +. epsilon);
        ])
    [ 0.1; 0.25; 0.5; 0.75; 1.0 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* F3: tree packing in practice vs Thorup's bound                      *)
(* ------------------------------------------------------------------ *)

let f3 () =
  let t =
    Table.create
      ~title:
        "F3: packed trees until one 1-respects a minimum cut (5 seeds per family) vs \
         Thorup's lambda^7 log^3 n bound -- tiny packings suffice in practice"
      ~columns:[ "family"; "lambda"; "mean trees"; "worst trees"; "theory bound" ]
  in
  let measure family mk =
    let needed = ref [] and lambdas = ref [] in
    for seed = 10 to 14 do
      let g = mk seed in
      let sw = Stoer_wagner.run g in
      let in_cut = Bitset.mem sw.Stoer_wagner.side in
      lambdas := float_of_int sw.Stoer_wagner.value :: !lambdas;
      let p = Tree_packing.greedy g ~trees:64 in
      let first =
        match Tree_packing.first_one_respecting g p ~in_cut with
        | Some i -> i + 1
        | None -> 64
      in
      needed := float_of_int first :: !needed
    done;
    let s = Stats.summarize (Array.of_list !needed) in
    let lambda = Stats.mean (Array.of_list !lambdas) in
    Table.add_row t
      [
        family;
        Table.fmt_float lambda;
        Table.fmt_float s.Stats.mean;
        Table.fmt_float s.Stats.max;
        Printf.sprintf "%.1e"
          (Tree_packing.theory_trees ~n:128 ~lambda:(int_of_float lambda));
      ]
  in
  measure "planted-128-l2" (fun seed -> Workloads.shuffled_planted ~seed ~n:128 ~lambda:2);
  measure "planted-128-l6" (fun seed -> Workloads.shuffled_planted ~seed ~n:128 ~lambda:6);
  measure "gnp-64-weighted" (fun seed ->
      let rng = Rng.create (seed * 13) in
      Generators.gnp_connected ~rng
        ~weights:{ Generators.wmin = 1; wmax = 8 }
        64 0.15);
  measure "regular-64-4" (fun seed ->
      let rng = Rng.create (seed * 17) in
      Generators.random_regular ~rng 64 4);
  measure "complete-16-weighted" (fun seed ->
      let rng = Rng.create (seed * 19) in
      Generators.complete ~weights:{ Generators.wmin = 1; wmax = 4 } ~rng 16);
  measure "torus-8x8" (fun _ -> Generators.torus 8 8);
  Table.print t

(* ------------------------------------------------------------------ *)
(* F4: exact-vs-sampling crossover in lambda                           *)
(* ------------------------------------------------------------------ *)

let f4 () =
  let t =
    Table.create
      ~title:
        "F4: rounds of exact (trees scale with lambda) vs (1+eps)-approx (flat) -- the \
         crossover motivates the paper's reduction (planted n=256)"
      ~columns:[ "lambda"; "exact rounds"; "approx(0.3) rounds"; "winner" ]
  in
  List.iter
    (fun lambda ->
      let g = Workloads.planted ~seed:(100 + lambda) ~n:256 ~lambda in
      (* the exact algorithm's poly(lambda) enters through the packing
         budget; the approx algorithm's skeleton budget stays flat *)
      let trees = min 96 (max 4 (4 * lambda)) in
      let e = Exact.run ~params:fast ~trees g in
      let a = Approx.run ~params:fast ~trees:8 ~rng:(Rng.create 3) ~epsilon:0.3 g in
      Table.add_row t
        [
          string_of_int lambda;
          string_of_int e.Exact.cost.Cost.rounds;
          string_of_int a.Approx.cost.Cost.rounds;
          (if e.Exact.cost.Cost.rounds <= a.Approx.cost.Cost.rounds then "exact"
           else "approx");
        ])
    [ 1; 2; 4; 8; 12; 16 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* T5: CONGEST discipline audit                                        *)
(* ------------------------------------------------------------------ *)

let t5 () =
  let t =
    Table.create
      ~title:
        "T5: engine audit of the real message-level programs (word budget = 4 words of \
         O(log n) bits; violations raise, so running = passing)"
      ~columns:
        [ "program"; "graph"; "rounds"; "messages"; "max words/msg"; "bits/word" ]
  in
  let row name gname n (audit : Network.audit) =
    Table.add_row t
      [
        name;
        gname;
        string_of_int audit.Network.rounds;
        string_of_int audit.Network.total_messages;
        string_of_int audit.Network.max_words;
        string_of_int (Config.bits_per_word ~n);
      ]
  in
  let profiles = ref [] in
  List.iter
    (fun (gname, g) ->
      let n = Graph.n g in
      let audit c = Option.get (Cost.leaf_audit c) in
      let tree, c_bfs = Primitives.bfs_tree g ~root:0 in
      let a_bfs = audit c_bfs in
      profiles := (gname, a_bfs.Network.messages_per_round) :: !profiles;
      row "bfs-tree flood" gname n a_bfs;
      let _, c_cc = Primitives.convergecast_sum g ~tree ~values:(Array.make n 1) in
      row "convergecast" gname n (audit c_cc);
      let _, c_bc =
        Primitives.broadcast_items g ~tree ~items:(Array.init 16 (fun i -> i))
      in
      row "pipelined broadcast x16" gname n (audit c_bc);
      let _, c_up =
        Primitives.upcast_distinct g ~tree
          ~initial:(Array.init n (fun v -> [ v mod 23 ]))
      in
      let a_up = audit c_up in
      row "pipelined upcast" gname n a_up)
    [ ("grid-12x12", Generators.grid 12 12);
      ("gnp-256", Workloads.gnp_supercritical ~seed:5 256) ];
  Table.print t;
  List.iter
    (fun (gname, profile) ->
      let peak = Array.fold_left max 0 profile in
      Printf.printf "T5 congestion profile (%s, bfs flood): peak %d msgs/round over %d rounds\n"
        gname peak (Array.length profile))
    (List.rev !profiles);
  (* the distributed MST exercises all four message kinds; its audit is
     implicit in it completing without a Model_violation *)
  let r = Boruvka_dist.run (Workloads.gnp_supercritical ~seed:6 128) in
  Printf.printf
    "T5 addendum: distributed Boruvka MST on gnp-128 ran %d phases / %d rounds with no \
     model violations\n\n"
    r.Boruvka_dist.phases r.Boruvka_dist.cost.Cost.rounds

(* ------------------------------------------------------------------ *)
(* F5: Figure-1 anatomy: fragments, merging nodes, T'F                 *)
(* ------------------------------------------------------------------ *)

let f5 () =
  let t =
    Table.create
      ~title:
        "F5: fragment anatomy (the paper's Figure 1, measured): all three structures \
         stay O(sqrt n)"
      ~columns:
        [ "graph"; "n"; "sqrt n"; "fragments"; "max frag height"; "merging nodes"; "|T'F|" ]
  in
  let row name g =
    let n = Graph.n g in
    let tree = Tree.bfs_tree g ~root:0 in
    let r = One_respect.run ~params:fast g tree in
    let s = r.One_respect.stats in
    Table.add_row t
      [
        name;
        string_of_int n;
        string_of_int (int_of_float (ceil (sqrt (float_of_int n))));
        string_of_int s.One_respect.fragment_count;
        string_of_int s.One_respect.max_fragment_height;
        string_of_int s.One_respect.merging_count;
        string_of_int s.One_respect.tf_prime_size;
      ]
  in
  List.iter (fun k -> row (Printf.sprintf "grid-%dx%d" k k) (Generators.grid k k))
    [ 8; 16; 32; 64 ];
  List.iter
    (fun length -> row (Printf.sprintf "cliques-path-%d" length) (Workloads.cliques_path ~length))
    [ 8; 32; 128 ];
  List.iter
    (fun legs ->
      let leg_length = 4 * legs in
      row
        (Printf.sprintf "spider-%dx%d" legs leg_length)
        (Generators.spider ~legs ~leg_length))
    [ 4; 8; 16; 32 ];
  row "gnp-1024 (shallow)" (Workloads.gnp_supercritical ~seed:3072 1024);
  Table.print t

(* ------------------------------------------------------------------ *)
(* A1: fragment-target ablation                                        *)
(* ------------------------------------------------------------------ *)

let a1 () =
  let t =
    Table.create
      ~title:
        "A1 (ablation): fragment height threshold vs rounds -- sqrt(n) balances \
         fragment-local work against the O(k) global broadcasts (cliques-path, n=1024, \
         tree height 255)"
      ~columns:[ "target"; "fragments"; "max frag height"; "rounds" ]
  in
  let g = Workloads.cliques_path ~length:128 in
  let tree = Tree.bfs_tree g ~root:0 in
  List.iter
    (fun target ->
      let r = One_respect.run ~params:fast ~target g tree in
      Table.add_row t
        [
          string_of_int target;
          string_of_int r.One_respect.stats.One_respect.fragment_count;
          string_of_int r.One_respect.stats.One_respect.max_fragment_height;
          string_of_int r.One_respect.cost.Cost.rounds;
        ])
    [ 4; 8; 16; 32; 64; 128; 256 ];
  Table.print t;
  print_endline
    "A1 reading: tiny targets explode the fragment count k (every broadcast pays \
     O(k)); huge targets push the per-fragment pipelines to O(target); the minimum \
     sits near target = Theta(sqrt n) = 32, as the paper chooses.\n"

(* ------------------------------------------------------------------ *)
(* A2: real engine runs vs analytic schedules                          *)
(* ------------------------------------------------------------------ *)

let a2 () =
  let t =
    Table.create
      ~title:
        "A2 (cross-validation): steps executed as real message programs vs their \
         analytic schedules, phase by phase -- Executed spans come from the engine, \
         Scheduled spans from the Pipeline formulas; deltas concentrate in the \
         phases that actually run real programs"
      ~columns:
        [ "graph"; "phase"; "prov (real/sched)"; "real"; "sched"; "delta" ]
  in
  List.iter
    (fun (name, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      let real = One_respect.run ~params:Params.default g tree in
      let sched = One_respect.run ~params:fast g tree in
      assert (real.One_respect.cuts = sched.One_respect.cuts);
      (* the five paper phases line up 1:1 across modes — compare spans
         directly by index *)
      List.iter2
        (fun (rs : Cost.span) (ss : Cost.span) ->
          assert (String.equal rs.Cost.label ss.Cost.label);
          Table.add_row t
            [
              name;
              (* "Step N" is enough for the table; the colon ends it *)
              (match String.index_opt rs.Cost.label ':' with
              | Some i -> String.sub rs.Cost.label 0 i
              | None -> rs.Cost.label);
              Printf.sprintf "%s/%s"
                (Cost.provenance_name rs.Cost.provenance)
                (Cost.provenance_name ss.Cost.provenance);
              string_of_int rs.Cost.rounds;
              string_of_int ss.Cost.rounds;
              string_of_int (rs.Cost.rounds - ss.Cost.rounds);
            ])
        real.One_respect.cost.Cost.spans sched.One_respect.cost.Cost.spans;
      let a = real.One_respect.cost.Cost.rounds
      and b = sched.One_respect.cost.Cost.rounds in
      Table.add_row t
        [ name; "total"; "-"; string_of_int a; string_of_int b; string_of_int (a - b) ])
    [
      ("grid-16x16", Generators.grid 16 16);
      ("torus-16x16", Generators.torus 16 16);
      ("gnp-256", Workloads.gnp_supercritical ~seed:9 256);
      ("spider-8x32", Generators.spider ~legs:8 ~leg_length:32);
      ("cliques-path-16", Workloads.cliques_path ~length:16);
    ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* A3: 1-respect vs 2-respect packing budgets                          *)
(* ------------------------------------------------------------------ *)

let a3 () =
  let t =
    Table.create
      ~title:
        "A3 (extension): 1-respecting (paper) vs 2-respecting (Karger/MN follow-up) \
         -- the 2-respect sweep needs a lambda-independent tree budget (planted n=128)"
      ~columns:
        [ "lambda"; "1R trees"; "1R rounds"; "1R exact"; "2R trees"; "2R rounds"; "2R exact" ]
  in
  List.iter
    (fun lambda ->
      let g = Workloads.shuffled_planted ~seed:(7 * lambda) ~n:128 ~lambda in
      let truth = (Stoer_wagner.run g).Stoer_wagner.value in
      let trees1 = min 96 (max 4 (4 * lambda)) in
      let one = Exact.run ~params:fast ~trees:trees1 g in
      let two = Mincut_core.Two_respect.min_cut ~params:fast ~trees:8 g in
      Table.add_row t
        [
          string_of_int truth;
          string_of_int trees1;
          string_of_int one.Exact.cost.Cost.rounds;
          (if one.Exact.value = truth then "yes" else "NO");
          "8";
          string_of_int two.Mincut_core.Two_respect.cost.Cost.rounds;
          (if two.Mincut_core.Two_respect.value = truth then "yes" else "NO");
        ])
    [ 1; 2; 4; 6; 8 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* A4: the small-lambda specialization frontier                        *)
(* ------------------------------------------------------------------ *)

let a4 () =
  let t =
    Table.create
      ~title:
        "A4 (baseline frontier): Pritchard-Thurimella small-cut detection (O(D)-ish, \
         conclusive only for lambda <= 2) vs the paper's general algorithm"
      ~columns:[ "graph"; "lambda"; "PT verdict"; "PT rounds"; "general rounds" ]
  in
  List.iter
    (fun (name, g) ->
      let lambda = (Stoer_wagner.run g).Stoer_wagner.value in
      let p = Mincut_core.Pritchard.run g in
      let verdict =
        match p.Mincut_core.Pritchard.verdict with
        | Mincut_core.Pritchard.Cut_found { value; _ } -> Printf.sprintf "cut %d" value
        | Mincut_core.Pritchard.Lambda_at_least_3 -> "lambda >= 3"
      in
      let general = Exact.run ~params:fast ~trees:8 g in
      Table.add_row t
        [
          name;
          string_of_int lambda;
          verdict;
          string_of_int p.Mincut_core.Pritchard.cost.Cost.rounds;
          string_of_int general.Exact.cost.Cost.rounds;
        ])
    [
      ("cliques-path-32 (λ=2)", Workloads.cliques_path ~length:32);
      ("spider-8x16 (λ=1)", Generators.spider ~legs:8 ~leg_length:16);
      ("grid-16x16 (λ=2)", Generators.grid 16 16);
      ("torus-12x12 (λ=4)", Generators.torus 12 12);
    ];
  Table.print t;
  print_endline
    "A4 reading: when lambda <= 2 the pre-2014 specialized detectors answer in \
     O~(D) rounds; the paper's contribution is covering every lambda at sqrt(n)+D \
     cost, exactly where the specialists go silent.\n"

(* ------------------------------------------------------------------ *)
(* W0: workload zoo characterization                                   *)
(* ------------------------------------------------------------------ *)

let w0 () =
  let t =
    Table.create
      ~title:
        "W0: workload characterization -- structural regime of every family used by \
         the experiments"
      ~columns:("family" :: Mincut_graph.Metrics.columns @ [ "disjoint trees" ])
  in
  List.iter
    (fun (name, g) ->
      let m = Mincut_graph.Metrics.compute g in
      Table.add_row t
        ((name :: Mincut_graph.Metrics.pp_row m)
        @ [ string_of_int (Tree_packing.disjoint_count g) ]))
    [
      ("gnp-256", Workloads.gnp_supercritical ~seed:1 256);
      ("torus-16x16", Generators.torus 16 16);
      ("grid-16x16", Generators.grid 16 16);
      ("cliques-path-32", Workloads.cliques_path ~length:32);
      ("planted-256-l4", Workloads.planted ~seed:1 ~n:256 ~lambda:4);
      ("spider-16x64", Generators.spider ~legs:16 ~leg_length:64);
      ("hypercube-8", Generators.hypercube 8);
      ("regular-256-4", Generators.random_regular ~rng:(Rng.create 4) 256 4);
      ("wheel-256", Generators.wheel 256);
    ];
  Table.print t
