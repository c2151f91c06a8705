(* The certifier: shadow sanitizers, span-tree invariant verification,
   asymptotic envelope fits, and the seeded-defect liveness proofs. *)

open Test_helpers
module Sanitize = Mincut_analysis.Sanitize
module Costcheck = Mincut_analysis.Costcheck
module Scaling = Mincut_analysis.Scaling
module Certify = Mincut_analysis.Certify
module Config = Mincut_congest.Config
module Network = Mincut_congest.Network
module Cost = Mincut_congest.Cost
module Primitives = Mincut_congest.Primitives
module One_respect = Mincut_core.One_respect
module Params = Mincut_core.Params
module Exact = Mincut_core.Exact
module Json = Mincut_util.Json

let workloads = Certify.workloads

(* ---- sanitize --------------------------------------------------------- *)

(* Deliberately inbox-order-dependent: round-1 state is the sender
   sequence verbatim.  Sorted delivery masks it; the sanitizer must not. *)
let order_dependent_program g =
  Network.
    {
      initial = (fun _ -> []);
      step =
        (fun ~node ~round ~inbox st ->
          if round = 0 then
            (st, List.map (fun (u, _) -> (u, node)) (adj_list g node))
          else (List.map fst inbox, []));
      halted = (fun st -> st <> []);
    }

let test_sanitize_catches_order_dependence () =
  let g = Generators.torus 4 4 in
  let r = Sanitize.run ~words:(fun _ -> 1) g (order_dependent_program g) in
  check_bool "not ok" false r.Sanitize.ok;
  match r.Sanitize.order_dependence with
  | None -> Alcotest.fail "order dependence not caught"
  | Some (node, round) ->
      check_bool "node in range" true (node >= 0 && node < 16);
      check_int "caught in the permuted round" 1 round

let test_sanitize_plain_engine_masks_it () =
  (* the same program runs clean without sanitize mode: that masking is
     exactly why the shadow harness exists *)
  let g = Generators.torus 4 4 in
  let states, _ =
    Network.run ~result:keep_state ~words:(fun _ -> 1) g (order_dependent_program g)
  in
  check_int "ran to completion" 16 (Array.length states)

let test_shipped_primitives_sanitize_clean () =
  let cfg = Config.sanitized Config.default in
  List.iter
    (fun (wname, g) ->
      let n = Graph.n g in
      let tree = Tree.bfs_tree g ~root:0 in
      let values = Array.init n (fun v -> (v * 7 mod 31) + 1) in
      let items = Array.init (n / 3) (fun i -> 3 * i) in
      let initial = Array.init n (fun v -> if v mod 4 = 0 then [ v ] else []) in
      let run name f =
        match f () with
        | () -> ()
        | exception Network.Model_violation v ->
            Alcotest.failf "%s on %s: %s" name wname
              (Network.violation_message v)
      in
      run "bfs_tree" (fun () -> ignore (Primitives.bfs_tree ~cfg g ~root:0));
      run "convergecast_sum" (fun () ->
          ignore (Primitives.convergecast_sum ~cfg g ~tree ~values));
      run "broadcast_items" (fun () ->
          ignore (Primitives.broadcast_items ~cfg g ~tree ~items));
      run "upcast_distinct" (fun () ->
          ignore (Primitives.upcast_distinct ~cfg g ~tree ~initial));
      run "flood_max" (fun () -> ignore (Primitives.flood_max ~cfg g ~values));
      run "flood_echo" (fun () -> ignore (Primitives.flood_echo ~cfg g ~root:0));
      (* the solve path's own programs: Borůvka's four and One_respect's
         fragment waves and pipelines *)
      run "Exact.run" (fun () ->
          ignore (Exact.run ~params:{ Params.default with Params.congest = cfg } g)))
    (workloads ())

let test_sanitize_flags_fat_payloads () =
  let g = Generators.gnp_connected ~rng:(Rng.create 7) 64 0.2 in
  let payload = List.init 8 (fun i -> i) in
  let prog =
    Network.
      {
        initial = (fun _ -> false);
        step =
          (fun ~node ~round:_ ~inbox:_ sent ->
            if sent then (sent, [])
            else
              (true, List.map (fun (u, _) -> (u, payload)) (adj_list g node)));
        halted = (fun sent -> sent);
      }
  in
  let r =
    Sanitize.run ~cfg:(Config.with_budget 64)
      ~limit:(Mincut_util.Intmath.ceil_log2 64)
      ~words:List.length g prog
  in
  check_bool "not ok" false r.Sanitize.ok;
  check_bool "flags raised" true (r.Sanitize.flags <> []);
  check_int "measured words" 8 r.Sanitize.max_payload_words;
  check_int "limit is log2 n" 6 r.Sanitize.payload_limit

(* ---- costcheck -------------------------------------------------------- *)

let dummy_audit ~rounds ~messages =
  let profile = Array.make (max rounds 1) 0 in
  if messages > 0 then profile.(0) <- messages;
  Network.
    {
      rounds;
      total_messages = messages;
      total_words = messages;
      max_words = 1;
      max_edge_load = 1;
      max_edge_words = 1;
      messages_per_round = profile;
    }

let laws_of errors = List.map (fun (e : Costcheck.error) -> e.Costcheck.law) errors

let test_costcheck_laws () =
  (* executed leaf without an audit *)
  let t = Cost.executed "x (real)" 3 in
  check_bool "missing audit" true
    (List.mem "executed-audit" (laws_of (Costcheck.check_tree t)));
  (* executed leaf disagreeing with its audit *)
  let t = Cost.executed ~audit:(dummy_audit ~rounds:2 ~messages:4) "x (real)" 3 in
  check_bool "rounds mismatch" true
    (List.mem "executed-audit" (laws_of (Costcheck.check_tree t)));
  (* scheduled leaf must not carry an audit — unrepresentable through
     the Cost constructors, so covered via the span record directly *)
  let bad =
    {
      Cost.label = "s";
      rounds = 2;
      provenance = Cost.Scheduled;
      children = [];
      audit = Some (dummy_audit ~rounds:2 ~messages:0);
    }
  in
  let t = { Cost.rounds = 2; spans = [ bad ] } in
  check_bool "audit on scheduled leaf" true
    (List.mem "audit-provenance" (laws_of (Costcheck.check_tree t)));
  (* group whose children don't sum *)
  let kid = Cost.scheduled "a" 2 in
  let g = Cost.group "phase" kid in
  let tampered =
    match g.Cost.spans with
    | [ s ] -> { Cost.rounds = 5; spans = [ { s with Cost.rounds = 5 } ] }
    | _ -> assert false
  in
  check_bool "leaf-sum" true
    (List.mem "leaf-sum" (laws_of (Costcheck.check_tree tampered)));
  (* clean executed leaf passes *)
  let t = Cost.executed ~audit:(dummy_audit ~rounds:3 ~messages:2) "x (real)" 3 in
  check_bool "clean leaf" true (Costcheck.check_tree t = []);
  (* a one-respect tree with four of the paper's five steps *)
  let four_steps =
    Cost.sum
      (List.init 4 (fun i ->
           Cost.group (Printf.sprintf "Step %d: s" (i + 1)) (Cost.scheduled "x" 1)))
  in
  let g = Generators.torus 4 4 in
  let r = One_respect.run ~params:Params.fast g (Tree.bfs_tree g ~root:0) in
  let r = { r with One_respect.cost = four_steps } in
  check_bool "four steps break the step shape" true
    (List.mem "step-shape" (laws_of (Costcheck.check_one_respect ~params:Params.fast r)))

let test_costcheck_accepts_shipped_trees () =
  List.iter
    (fun (wname, g) ->
      let tree = Tree.bfs_tree g ~root:0 in
      List.iter
        (fun (pname, params) ->
          let r = One_respect.run ~params g tree in
          match Costcheck.check_one_respect ~params r with
          | [] -> ()
          | e :: _ ->
              Alcotest.failf "%s (%s): %s" wname pname (Costcheck.describe e))
        [ ("real", Params.default); ("fast", Params.fast) ])
    (workloads ())

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

let test_costcheck_rejects_mistagged_span () =
  let g = Generators.gnp_connected ~rng:(Rng.create 12) 24 0.3 in
  let tree = Tree.bfs_tree g ~root:0 in
  let r = One_respect.run ~params:Params.default g tree in
  match bump_in_list r.One_respect.cost.Cost.spans with
  | None -> Alcotest.fail "no executed leaf in a real-primitives run"
  | Some spans ->
      let tampered = { r.One_respect.cost with Cost.spans } in
      let laws = laws_of (Costcheck.check_tree tampered) in
      check_bool "executed-audit law fires" true
        (List.mem "executed-audit" laws)

let test_costcheck_rejects_formula_drift () =
  let g = Generators.grid 5 5 in
  let tree = Tree.bfs_tree g ~root:0 in
  let r = One_respect.run ~params:Params.fast g tree in
  (* tamper with one scheduled formula leaf *)
  let target = "step4: local merging-node detection" in
  let rec tamper (s : Cost.span) =
    if s.Cost.children = [] && String.equal s.Cost.label target then
      { s with Cost.rounds = s.Cost.rounds + 1 }
    else { s with Cost.children = List.map tamper s.Cost.children }
  in
  let tampered =
    { r.One_respect.cost with Cost.spans = List.map tamper r.One_respect.cost.Cost.spans }
  in
  let r = { r with One_respect.cost = tampered } in
  let laws =
    laws_of (Costcheck.check_one_respect ~params:Params.fast r)
  in
  check_bool "formula law fires" true (List.mem "formula" laws)

(* ---- scaling ---------------------------------------------------------- *)

let test_scaling_fits_shipped_primitives () =
  let r = Scaling.run ~quick:true () in
  if not r.Scaling.ok then
    Alcotest.failf "scaling failed:\n%s"
      (String.concat "\n" (Scaling.describe r));
  check_int "four quantities fitted" 4 (List.length r.Scaling.fits)

let test_scaling_gate_is_live () =
  (* slack < 1 is unsatisfiable (max ratio >= min ratio), so every fit
     must fail — proving the comparison actually gates *)
  let r = Scaling.run ~quick:true ~slack:0.5 () in
  check_bool "impossible slack fails" false r.Scaling.ok;
  check_bool "every fit reported" true
    (List.for_all (fun (f : Scaling.fit) -> not f.Scaling.ok) r.Scaling.fits)

(* ---- certify driver --------------------------------------------------- *)

let test_certify_shipped_tree_clean () =
  let r = Certify.run ~quick:true () in
  if not r.Certify.ok then
    Alcotest.failf "certify failed: %s"
      (String.concat "; "
         (List.concat_map
            (fun (c : Certify.check) ->
              if c.Certify.ok then [] else c.Certify.name :: c.Certify.details)
            r.Certify.checks));
  (* the replay and step-shape checks stay in the report and cover
     every workload *)
  List.iter
    (fun name ->
      match List.find_opt (fun (c : Certify.check) -> c.Certify.name = name) r.Certify.checks with
      | None -> Alcotest.failf "check %S missing from the report" name
      | Some c ->
          List.iter
            (fun (wname, _) ->
              check_bool
                (Printf.sprintf "%s covers %s" name wname)
                true
                (List.exists
                   (String.starts_with ~prefix:(wname ^ ": "))
                   c.Certify.details))
            (workloads ()))
    [
      "replay: bfs-audit";
      "replay: exact";
      "replay: one-respect";
      "replay: approx";
      "costcheck: one-respect step-shape and formula laws";
    ];
  check_bool "lockcheck check closes the report" true
    (match List.rev r.Certify.checks with
    | last :: _ -> last.Certify.name = "lockcheck: no violations recorded"
    | [] -> false)

let test_certify_injections_fail () =
  List.iter
    (fun name ->
      match Certify.defect_of_name name with
      | None -> Alcotest.failf "unknown defect %s" name
      | Some d ->
          let r = Certify.run ~quick:true ~inject:d () in
          check_bool (name ^ " injection fails the run") false r.Certify.ok;
          check_int "only the injected check runs" 1
            (List.length r.Certify.checks))
    [ "order"; "span"; "payload" ]

(* ---- JSON round-trips ------------------------------------------------- *)

let roundtrips j =
  let s = Json.to_string j in
  match Json.of_string s with
  | Error e -> Alcotest.failf "unparseable JSON: %s\n%s" e s
  | Ok j' -> check_bool "round-trip" true (String.equal s (Json.to_string j'))

let test_reports_roundtrip () =
  let g = Generators.torus 4 4 in
  roundtrips (Scaling.to_json (Scaling.run ~quick:true ()));
  roundtrips (Certify.to_json (Certify.run ~quick:true ()));
  roundtrips (Certify.to_json (Certify.run ~inject:Certify.Payload ()));
  let tree = Tree.bfs_tree g ~root:0 in
  let r = One_respect.run ~params:Params.fast g tree in
  (* a tampered run so the error list is non-empty *)
  let r =
    {
      r with
      One_respect.cost =
        { r.One_respect.cost with Cost.rounds = r.One_respect.cost.Cost.rounds + 1 };
    }
  in
  let errors = Costcheck.check_one_respect ~params:Params.fast r in
  check_bool "tampered total caught" true (errors <> [])

let suite =
  [
    tc "sanitize: order-dependent program caught with provenance"
      test_sanitize_catches_order_dependence;
    tc "sanitize: plain engine masks the same defect"
      test_sanitize_plain_engine_masks_it;
    tc "sanitize: all six shipped primitives pass permuted delivery"
      test_shipped_primitives_sanitize_clean;
    tc "sanitize: sqrt(n)-word payloads flagged against log n limit"
      test_sanitize_flags_fat_payloads;
    tc "costcheck: structural laws on hand-built trees" test_costcheck_laws;
    tc "costcheck: shipped one-respect trees pass both modes"
      test_costcheck_accepts_shipped_trees;
    tc "costcheck: mis-tagged executed span rejected"
      test_costcheck_rejects_mistagged_span;
    tc "costcheck: scheduled formula drift rejected"
      test_costcheck_rejects_formula_drift;
    tc "scaling: shipped primitives fit their envelopes"
      test_scaling_fits_shipped_primitives;
    tc "scaling: the gate itself is live" test_scaling_gate_is_live;
    tc "certify: shipped tree certifies clean" test_certify_shipped_tree_clean;
    tc "certify: all three seeded defects fail the run"
      test_certify_injections_fail;
    tc "certify: JSON reports round-trip" test_reports_roundtrip;
  ]
