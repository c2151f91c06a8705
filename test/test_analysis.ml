open Test_helpers
module Lint = Mincut_analysis.Lint
module Srcread = Mincut_analysis.Srcread
module Astlint = Mincut_analysis.Astlint
module Replay = Mincut_analysis.Replay
module Lockcheck = Mincut_parallel.Lockcheck
module Json = Mincut_util.Json
module Network = Mincut_congest.Network
module Service = Mincut_serve.Service
module Request = Mincut_serve.Request

(* ---- findings: positions, JSON, allowlist ---------------------------- *)

let findings_of src =
  match Srcread.parse_string ~file:"fixture.ml" src with
  | Ok s -> Astlint.hazards s
  | Error e -> Alcotest.failf "fixture does not parse: %s" e.Srcread.reason

let test_lint_positions () =
  match findings_of "let a = 1\nlet f x = Hashtbl.hash x\n" with
  | [ f ] ->
      check_int "line is 1-based" 2 f.Lint.line;
      check_int "col is 0-based" 10 f.Lint.col;
      check_bool "file label" true (f.Lint.file = "fixture.ml")
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_lint_json () =
  let findings = findings_of "let f x = Hashtbl.hash x" in
  let j = Lint.to_json findings in
  check_bool "count" true (Json.member "count" j = Some (Json.Int 1));
  match Option.bind (Json.member "findings" j) Json.to_list with
  | Some [ f ] ->
      check_bool "rule field" true
        (Json.member "rule" f = Some (Json.String "hashtbl-hash"));
      check_bool "line field" true (Json.member "line" f = Some (Json.Int 1))
  | _ -> Alcotest.fail "findings array malformed"

let test_lint_allowlist () =
  let findings = findings_of "let f x = Hashtbl.hash x\nlet c a b = compare a b\n" in
  check_int "two findings" 2 (List.length findings);
  let of_lines = Lint.Allow.of_lines ~known:Astlint.known_rule in
  match of_lines [ "# accepted"; "hashtbl-hash fixture.ml:1" ] with
  | Error e -> Alcotest.fail e
  | Ok allow ->
      let kept = Lint.Allow.filter allow findings in
      check_bool "hash suppressed, compare kept" true
        (List.map (fun f -> f.Lint.rule) kept = [ "poly-compare" ]);
      check_bool "nothing unused" true (Lint.Allow.unused allow findings = []);
      (match of_lines [ "obj-magic elsewhere.ml" ] with
      | Error e -> Alcotest.fail e
      | Ok stale ->
          check_int "stale entry reported" 1
            (List.length (Lint.Allow.unused stale findings)));
      check_bool "bad line rejected" true
        (Result.is_error (of_lines [ "only-a-rule" ]))

(* ---- replay ----------------------------------------------------------- *)

let test_replay_deterministic_program () =
  let g = Generators.torus 3 3 in
  (* one full neighbor exchange, then halt *)
  let final : (int * bool, int) Network.program =
    {
      initial = (fun v -> (v, false));
      step =
        (fun ~node ~round ~inbox:_ (v, _) ->
          if round = 0 then
            ( (v, false),
              List.map (fun (u, _) -> (u, node)) (adj_list g node) )
          else ((v, true), []));
      halted = (fun (_, done_) -> done_);
    }
  in
  match
    Replay.check
      ~run:(fun () -> snd (Network.run ~result:keep_state ~words:(fun _ -> 1) g final))
      ~diff:Replay.diff_audits
  with
  | Ok audit -> check_bool "some traffic" true (audit.Network.total_messages > 0)
  | Error diffs -> Alcotest.failf "unexpected diffs: %s" (String.concat "; " diffs)

let test_replay_catches_nondeterminism () =
  (* a hidden mutable global leaks across runs: the second run sends in a
     different round, so the audits differ.  Each node counts its steps
     in its state (-1 once node 0 has sent), so an empty-inbox step
     depends on node, state and the hidden global, never on the round *)
  let sneak = ref 0 in
  let g = Generators.path 2 in
  let prog : (int, int) Network.program =
    {
      initial = (fun _ -> 0);
      step =
        (fun ~node ~round:_ ~inbox:_ steps ->
          if node = 0 && steps = !sneak then begin
            incr sneak;
            (-1, [ (1, 0) ])
          end
          else (steps + 1, []));
      halted = (fun steps -> steps < 0 || steps > 3);
    }
  in
  match
    Replay.check
      ~run:(fun () -> snd (Network.run ~result:keep_state ~words:(fun _ -> 1) g prog))
      ~diff:Replay.diff_audits
  with
  | Ok _ -> Alcotest.fail "nondeterminism not detected"
  | Error diffs -> check_bool "diffs reported" true (diffs <> [])

let test_replay_diff_audits_fields () =
  let g = Generators.path 3 in
  let a =
    Option.get
      (Mincut_congest.Cost.leaf_audit (snd (Mincut_congest.Primitives.bfs_tree g ~root:0)))
  in
  check_bool "identical audits" true (Replay.diff_audits a a = []);
  let b = { a with Network.rounds = a.Network.rounds + 1; total_words = 0 } in
  let diffs = Replay.diff_audits a b in
  check_bool "rounds diff named" true
    (List.exists (fun d -> String.length d >= 6 && String.sub d 0 6 = "rounds") diffs);
  check_int "two fields differ" 2 (List.length diffs)

(* ---- lockcheck -------------------------------------------------------- *)

let test_lockcheck_ordered_ok () =
  Lockcheck.reset ();
  let a = Lockcheck.create ~name:"t.a" ~order:1 () in
  let b = Lockcheck.create ~name:"t.b" ~order:2 () in
  let r =
    Lockcheck.with_lock a (fun () -> Lockcheck.with_lock b (fun () -> 41) + 1)
  in
  check_int "nested increasing ranks run" 42 r;
  check_bool "no violations" true (Lockcheck.violations () = [])

let test_lockcheck_detects_inversion () =
  Lockcheck.reset ();
  let a = Lockcheck.create ~name:"t.low" ~order:1 () in
  let b = Lockcheck.create ~name:"t.high" ~order:2 () in
  let r =
    Lockcheck.with_lock b (fun () -> Lockcheck.with_lock a (fun () -> 7))
  in
  check_int "execution continues by default" 7 r;
  (match Lockcheck.violations () with
  | [ v ] ->
      check_bool "kind" true (v.Lockcheck.kind = Lockcheck.Order_inversion);
      check_bool "acquiring" true (v.Lockcheck.acquiring = "t.low");
      check_bool "held shows t.high" true
        (List.mem_assoc "t.high" v.Lockcheck.held);
      check_bool "message renders" true
        (String.length (Lockcheck.violation_message v) > 0)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  Lockcheck.reset ();
  Lockcheck.set_raise_on_inversion true;
  Fun.protect
    ~finally:(fun () ->
      Lockcheck.set_raise_on_inversion false;
      Lockcheck.reset ())
    (fun () ->
      check_bool "strict mode raises" true
        (try
           Lockcheck.with_lock b (fun () ->
               Lockcheck.with_lock a (fun () -> ()));
           false
         with Lockcheck.Lock_violation _ -> true))

let test_lockcheck_reentrancy_raises () =
  Lockcheck.reset ();
  let a = Lockcheck.create ~name:"t.reent" ~order:5 () in
  check_bool "re-entrancy raises" true
    (try
       Lockcheck.with_lock a (fun () -> Lockcheck.with_lock a (fun () -> ()));
       false
     with Lockcheck.Lock_violation v -> v.Lockcheck.kind = Lockcheck.Reentrancy);
  check_bool "lock released after violation" true
    (Lockcheck.with_lock a (fun () -> true));
  Lockcheck.reset ()

(* ---- serve under domain stress ---------------------------------------- *)

let test_serve_lock_discipline_under_domains () =
  Lockcheck.reset ();
  let svc = Service.create () in
  let graphs =
    [|
      Generators.ring 6;
      Generators.grid 3 3;
      Generators.complete 5;
      Generators.torus 3 3;
    |]
  in
  let worker i () =
    for k = 0 to 7 do
      let g = graphs.((i + k) mod Array.length graphs) in
      let r = Request.make ~priority:(k mod 3) g in
      if k mod 2 = 0 then ignore (Service.solve svc r)
      else begin
        ignore (Service.submit svc r);
        ignore (Service.flush svc)
      end;
      ignore (Service.snapshot svc)
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains;
  check_bool "no lock-discipline violations under domain stress" true
    (Lockcheck.violations () = []);
  check_bool "service still answers" true
    (let r = Service.solve svc (Request.make graphs.(0)) in
     r.Request.summary.Mincut_core.Api.value > 0);
  Lockcheck.reset ()

let suite =
  [
    tc "lint: positions are 1-based lines, 0-based cols" test_lint_positions;
    tc "lint: JSON report" test_lint_json;
    tc "lint: allowlist filters and reports stale entries" test_lint_allowlist;
    tc "replay: deterministic program passes" test_replay_deterministic_program;
    tc "replay: hidden global state detected" test_replay_catches_nondeterminism;
    tc "replay: audit differ names fields" test_replay_diff_audits_fields;
    tc "lockcheck: increasing ranks pass" test_lockcheck_ordered_ok;
    tc "lockcheck: inversion recorded and raised in strict mode"
      test_lockcheck_detects_inversion;
    tc "lockcheck: re-entrancy always raises" test_lockcheck_reentrancy_raises;
    tc_slow "serve: lock discipline clean under domain stress"
      test_serve_lock_discipline_under_domains;
  ]
