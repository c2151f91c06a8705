module Graph = Mincut_graph.Graph
module Tree = Mincut_graph.Tree
module Generators = Mincut_graph.Generators
module Config = Mincut_congest.Config
module Network = Mincut_congest.Network
module Cost = Mincut_congest.Cost
module Primitives = Mincut_congest.Primitives
module Params = Mincut_core.Params
module Exact = Mincut_core.Exact
module One_respect = Mincut_core.One_respect
module Api = Mincut_core.Api
module Mst_seq = Mincut_graph.Mst_seq
module Lockcheck = Mincut_parallel.Lockcheck
module Rng = Mincut_util.Rng
module Json = Mincut_util.Json

type check = { name : string; ok : bool; details : string list }

type report = { checks : check list; ok : bool }

type defect = Order | Span | Payload

let defect_of_name = function
  | "order" -> Some Order
  | "span" -> Some Span
  | "payload" -> Some Payload
  | _ -> None

(* The conformance workloads: two regular lattices plus a seeded
   random graph. *)
let workloads () =
  [
    ("torus4", Generators.torus 4 4);
    ("grid5", Generators.grid 5 5);
    ("gnp24", Generators.gnp_connected ~rng:(Rng.create 12) 24 0.3);
  ]

let per_workload name f =
  let results =
    List.map
      (fun (wname, g) ->
        ( wname,
          match f g with
          | lines -> lines
          | exception e -> [ "raised " ^ Printexc.to_string e ] ))
      (workloads ())
  in
  {
    name;
    ok = List.for_all (fun (_, lines) -> lines = []) results;
    details =
      List.concat_map
        (fun (wname, lines) ->
          if lines = [] then [ wname ^ ": ok" ]
          else List.map (fun l -> wname ^ ": " ^ l) lines)
        results;
  }

(* ---- replay: every pipeline twice, diffed in full ------------------ *)

let replay kind ~diff run =
  per_workload ("replay: " ^ kind) (fun g ->
      match Replay.check ~run:(fun () -> run g) ~diff with
      | Ok _ -> []
      | Error diffs -> diffs)

let replay_checks () =
  [
    replay "bfs-audit" ~diff:Replay.diff_audits (fun g ->
        Option.get (Cost.leaf_audit (snd (Primitives.bfs_tree g ~root:0))));
    replay "exact" ~diff:Replay.diff_summary (fun g ->
        Api.min_cut ~params:Params.fast ~algorithm:Api.Exact_small_lambda ~seed:0 g);
    replay "one-respect" ~diff:Replay.diff_one_respect (fun g ->
        let tree = Tree.of_edge_ids g ~root:0 (Mst_seq.kruskal g) in
        Api.one_respecting_cut ~params:Params.fast g tree);
    replay "approx" ~diff:Replay.diff_summary (fun g ->
        Api.min_cut ~params:Params.fast ~algorithm:(Api.Approx 0.5) ~seed:0 g);
  ]

(* ---- sanitize: shipped primitives under permuted delivery ---------- *)

(* Run every shipped primitive, and one exact solve for the programs of
   the solve path itself (Borůvka's and One_respect's), with
   [Config.sanitize] set: each step with a multi-message inbox is
   re-executed under adversarial inbox orders inside the engine, so an
   order-dependent program raises. *)
let sanitize_primitive_checks () =
  let cfg = Config.sanitized Config.default in
  per_workload "sanitize: primitives under permuted inboxes" (fun g ->
      let n = Graph.n g in
      let tree = Tree.bfs_tree g ~root:0 in
      let values = Array.init n (fun v -> (v * 7 mod 31) + 1) in
      let items = Array.init ((n + 2) / 3) (fun i -> 3 * i) in
      let initial = Array.init n (fun v -> if v mod 4 = 0 then [ v ] else []) in
      let progs =
        [
          ("bfs_tree", fun () -> ignore (Primitives.bfs_tree ~cfg g ~root:0));
          ( "convergecast_sum",
            fun () -> ignore (Primitives.convergecast_sum ~cfg g ~tree ~values) );
          ( "broadcast_items",
            fun () -> ignore (Primitives.broadcast_items ~cfg g ~tree ~items) );
          ( "upcast_distinct",
            fun () -> ignore (Primitives.upcast_distinct ~cfg g ~tree ~initial) );
          ("flood_max", fun () -> ignore (Primitives.flood_max ~cfg g ~values));
          ("flood_echo", fun () -> ignore (Primitives.flood_echo ~cfg g ~root:0));
          ( "Exact.run",
            fun () ->
              ignore (Exact.run ~params:{ Params.default with Params.congest = cfg } g) );
        ]
      in
      List.filter_map
        (fun (pname, f) ->
          match f () with
          | () -> None
          | exception Network.Model_violation v ->
              Some (pname ^ ": " ^ Network.violation_message v))
        progs)

(* The payload-scaling check on the raw BFS program: single-word
   payloads stay under the c·log n limit. *)
let sanitize_bfs_check () =
  per_workload "sanitize: bfs program payload tracking" (fun g ->
      Sanitize.describe
        (Sanitize.run ~words:(fun _ -> 1) g (Primitives.bfs_program g ~root:0)))

(* ---- costcheck: span-tree laws over full runs ---------------------- *)

let costcheck_summary_checks () =
  per_workload "costcheck: Api.min_cut span trees" (fun g ->
      List.map Costcheck.describe (Costcheck.check_tree (Api.min_cut g).Api.cost))

let costcheck_one_respect_checks () =
  per_workload "costcheck: one-respect step-shape and formula laws" (fun g ->
      let tree = Tree.bfs_tree g ~root:0 in
      (* both parameter modes: real primitives exercise the executed-audit
         law, fast mode the full scheduled-formula table *)
      List.concat_map
        (fun (pname, params) ->
          List.map
            (fun e -> Printf.sprintf "(%s) %s" pname (Costcheck.describe e))
            (Costcheck.check_one_respect ~params (One_respect.run ~params g tree)))
        [ ("real", Params.default); ("fast", Params.fast) ])

(* Run last, after the serve-level checks have taken the serving layer's
   ranked locks: any inversion or re-entrancy they hit is in the
   registry by then. *)
let lockcheck_check () =
  let details = List.map Lockcheck.violation_message (Lockcheck.violations ()) in
  { name = "lockcheck: no violations recorded"; ok = details = []; details }

(* ---- scaling ------------------------------------------------------- *)

let scaling_check ~quick ~slack =
  let r = Scaling.run ~quick ?slack () in
  {
    name = "scaling: asymptotic envelope fits";
    ok = r.Scaling.ok;
    details = Scaling.describe r;
  }

(* The chunked-store ladder: same fitter, opposite regime (torus,
   D = Θ(√n)) at sizes the engine can't execute.  Besides the envelope
   fits, each point must actually have exercised eviction — a ladder
   that fit everything while resident defeats its own purpose. *)
let store_scaling_check ~quick ~slack =
  let name = "scaling: large-n store ladder" in
  match Scaling.store_samples ~quick () with
  | Error e -> { name; ok = false; details = [ e ] }
  | Ok samples ->
      let r = Scaling.fit_store ?slack samples in
      let starving =
        List.filter_map
          (fun (s : Scaling.store_sample) ->
            if s.Scaling.st_stats.Mincut_store.Residency.evictions > 0 then None
            else
              Some
                (Printf.sprintf
                   "n=%d: no evictions under a quarter-working-set budget"
                   s.Scaling.st_n))
          samples
      in
      {
        name;
        ok = r.Scaling.ok && starving = [];
        details = Scaling.describe r @ starving;
      }

(* ---- seeded defects ------------------------------------------------ *)

(* one message carrying [x] down each incident edge of [node] *)
let down_each_edge g node x =
  let out = ref [] in
  Graph.iter_adj g node (fun u _ -> out := (u, x) :: !out);
  List.rev !out

(* A deliberately order-dependent program: round-1 state is the inbox's
   sender sequence verbatim, so any permutation of delivery changes the
   marshalled state.  The sanitizer must catch it with (node, round). *)
let order_dependent_program g =
  Network.
    {
      initial = (fun _ -> []);
      step =
        (fun ~node ~round ~inbox st ->
          if round = 0 then
            (st, down_each_edge g node node)
          else (List.map fst inbox, []));
      halted = (fun st -> st <> []);
    }

let inject_order () =
  let g = Generators.torus 4 4 in
  let r = Sanitize.run ~words:(fun _ -> 1) g (order_dependent_program g) in
  let details =
    match r.Sanitize.order_dependence with
    | Some (node, round) ->
        [
          Printf.sprintf
            "caught: order dependence at node %d, round %d (defect injected \
             on purpose — this check fails to prove the catch)"
            node round;
        ]
    | None -> [ "MISSED: the sanitizer did not catch the order dependence" ]
  in
  (* the check fails either way: ok would require a clean report *)
  { name = "inject: order-dependent program"; ok = r.Sanitize.ok; details }

(* Mis-tag an Executed span: bump the first executed leaf's rounds so it
   disagrees with its engine audit.  Costcheck must reject the tree. *)
let rec bump_first_executed (s : Cost.span) =
  match s.Cost.children with
  | [] ->
      if Cost.provenance_equal s.Cost.provenance Cost.Executed then
        Some { s with Cost.rounds = s.Cost.rounds + 1 }
      else None
  | kids -> (
      match bump_in_list kids with
      | None -> None
      | Some kids' -> Some { s with Cost.children = kids' })

and bump_in_list = function
  | [] -> None
  | s :: rest -> (
      match bump_first_executed s with
      | Some s' -> Some (s' :: rest)
      | None -> (
          match bump_in_list rest with
          | Some rest' -> Some (s :: rest')
          | None -> None))

let inject_span () =
  let g = Generators.gnp_connected ~rng:(Rng.create 12) 24 0.3 in
  let tree = Tree.bfs_tree g ~root:0 in
  let r = One_respect.run ~params:Params.default g tree in
  match bump_in_list r.One_respect.cost.Cost.spans with
  | None ->
      (* nothing was injected, so nothing can be caught *)
      {
        name = "inject: mis-tagged executed span";
        ok = true;
        details = [ "MISSED: no executed leaf found to tamper with" ];
      }
  | Some spans ->
      let tampered = { r.One_respect.cost with Cost.spans } in
      let errors = Costcheck.check_tree tampered in
      let details =
        match errors with
        | [] -> [ "MISSED: costcheck accepted a mis-tagged executed span" ]
        | es ->
            List.map
              (fun e -> "caught (defect injected on purpose): " ^ Costcheck.describe e)
              es
      in
      { name = "inject: mis-tagged executed span"; ok = errors = []; details }

(* A primitive "patched" to ship Θ(√n)-word payloads: legal under a
   permissive engine budget, but far beyond the c·log n scaling the
   model grants — the payload tracker must flag it. *)
let fat_payload_program g =
  let n = Graph.n g in
  let payload = List.init (Params.sqrt_target ~n) (fun i -> i) in
  Network.
    {
      initial = (fun _ -> false);
      step =
        (fun ~node ~round:_ ~inbox:_ sent ->
          if sent then (sent, [])
          else
            (true, down_each_edge g node payload));
      halted = (fun sent -> sent);
    }

let inject_payload () =
  let n = 64 in
  let g = Generators.gnp_connected ~rng:(Rng.create 7) n 0.2 in
  (* permissive engine budget so the oversized-message rule stays out of
     the way: the *scaling* limit is what must catch this *)
  let cfg = Config.with_budget 64 in
  let limit = Mincut_util.Intmath.ceil_log2 n in
  let r = Sanitize.run ~cfg ~limit ~words:List.length g (fat_payload_program g) in
  let details =
    match r.Sanitize.flag with
    | None -> [ "MISSED: no payload flag for a sqrt(n)-word message" ]
    | Some f ->
        [
          Printf.sprintf
            "caught: node %d round %d sent %d words against a %d-word log-n \
             limit (defect injected on purpose)"
            f.Sanitize.node f.Sanitize.round f.Sanitize.words f.Sanitize.limit;
        ]
  in
  { name = "inject: sqrt(n)-word payloads"; ok = r.Sanitize.ok; details }

(* ---- driver -------------------------------------------------------- *)

let run ?(quick = false) ?slack ?inject ?(extra = fun () -> []) () =
  let checks =
    match inject with
    | Some Order -> [ inject_order () ]
    | Some Span -> [ inject_span () ]
    | Some Payload -> [ inject_payload () ]
    | None ->
        let shipped =
          replay_checks ()
          @ [
              sanitize_primitive_checks ();
              sanitize_bfs_check ();
              costcheck_summary_checks ();
              costcheck_one_respect_checks ();
              scaling_check ~quick ~slack;
              store_scaling_check ~quick ~slack;
            ]
        in
        let extra = extra () in
        shipped @ extra @ [ lockcheck_check () ]
  in
  { checks; ok = List.for_all (fun (c : check) -> c.ok) checks }

let check_to_json c =
  Json.Obj
    [
      ("name", Json.String c.name);
      ("ok", Json.Bool c.ok);
      ("details", Json.List (List.map (fun d -> Json.String d) c.details));
    ]

let to_json r =
  Json.Obj
    [
      ("checks", Json.List (List.map check_to_json r.checks));
      ("ok", Json.Bool r.ok);
    ]
