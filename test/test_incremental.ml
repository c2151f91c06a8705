(* The delta layer: versioned handles (apply semantics, rolling
   multiset digest, memory flat in the delta count), incremental answering
   (three tiers, λ-exactness under arbitrary delta sequences), the
   seeded delta-stream generator, and Api sessions (anchored summary
   reuse across versions). *)

open Test_helpers
module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Delta = Mincut_graph.Delta
module Handle = Mincut_graph.Handle
module Bfs = Mincut_graph.Bfs
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Rng = Mincut_util.Rng
module Bitset = Mincut_util.Bitset
module Api = Mincut_core.Api
module Params = Mincut_core.Params
module Incremental = Mincut_core.Incremental

let check_string = Alcotest.(check string)
let lambda_of g = Stoer_wagner.min_cut_value g

(* ---- delta grammar ---------------------------------------------------- *)

let test_delta_parse_roundtrip () =
  let ops =
    [
      Delta.Add_edge { u = 0; v = 3; w = 2 };
      Delta.Remove_edge { u = 1; v = 2 };
      Delta.Reweight { u = 4; v = 0; w = 7 };
      Delta.Merge_nodes { u = 2; v = 5 };
      Delta.Split_node { v = 1; w = 3; moved = [ 0; 4 ] };
      Delta.Split_node { v = 1; w = 3; moved = [] };
    ]
  in
  List.iter
    (fun op ->
      match Delta.parse (Delta.to_line op) with
      | Ok op' -> check_string "roundtrip" (Delta.to_line op) (Delta.to_line op')
      | Error e -> Alcotest.fail (Delta.to_line op ^ ": " ^ e))
    ops;
  (* comments and blanks parse; garbage does not *)
  check_bool "comment tail" true (Delta.parse "add 1 2 3 # note" = Ok (Delta.Add_edge { u = 1; v = 2; w = 3 }));
  check_bool "bad verb" true (Result.is_error (Delta.parse "frobnicate 1 2"));
  check_bool "bad int" true (Result.is_error (Delta.parse "add 1 x 3"))

(* ---- handle apply semantics ------------------------------------------- *)

let test_handle_apply_semantics () =
  let h = Handle.of_graph (Generators.path 4) in
  check_int "base channels" 3 (Handle.channels h);
  (* add a fresh channel *)
  (match Handle.apply h (Delta.Add_edge { u = 0; v = 2; w = 2 }) with
  | Ok o ->
      check_int "version bumped" 1 o.Handle.version;
      check_bool "not renumbered" false o.Handle.renumbered
  | Error e -> Alcotest.fail e);
  check_int "channel added" 4 (Handle.channels h);
  check_int "channel weight" 2 (Handle.channel_weight h 2 0);
  (* adding onto an existing channel aggregates *)
  (match Handle.apply h (Delta.Add_edge { u = 2; v = 0; w = 3 }) with
  | Ok o ->
      check_bool "one channel-level change" true
        (match o.Handle.changes with
        | [ c ] -> c.Handle.before = 2 && c.Handle.after = 5
        | _ -> false)
  | Error e -> Alcotest.fail e);
  check_int "aggregated" 5 (Handle.channel_weight h 0 2);
  (* errors and no-ops leave everything untouched *)
  let v = Handle.version h and d = Handle.digest h in
  check_bool "remove absent is Error" true
    (Result.is_error (Handle.apply h (Delta.Remove_edge { u = 1; v = 3 })));
  check_bool "self loop is Error" true
    (Result.is_error (Handle.apply h (Delta.Add_edge { u = 1; v = 1; w = 1 })));
  check_bool "out of range is Error" true
    (Result.is_error (Handle.apply h (Delta.Add_edge { u = 0; v = 9; w = 1 })));
  (match Handle.apply h (Delta.Reweight { u = 0; v = 2; w = 5 }) with
  | Ok o -> check_bool "no-op reweight: no changes" true (o.Handle.changes = [])
  | Error e -> Alcotest.fail e);
  check_int "version unchanged" v (Handle.version h);
  check_bool "digest unchanged" true (Int64.equal d (Handle.digest h));
  (* remove and reweight *)
  (match Handle.apply h (Delta.Remove_edge { u = 2; v = 0 }) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check_int "removed" 0 (Handle.channel_weight h 0 2);
  check_int "back to base channels" 3 (Handle.channels h)

let test_handle_merge_split () =
  let h = Handle.of_graph (Generators.ring 6) in
  (* merge 1 into 0: ring-6 contracts to a 5-node cycle-ish multigraph;
     node 5 is renumbered into slot 1 *)
  (match Handle.apply h (Delta.Merge_nodes { u = 0; v = 1 }) with
  | Ok o -> check_bool "renumbered" true o.Handle.renumbered
  | Error e -> Alcotest.fail e);
  check_int "node count shrank" 5 (Handle.n h);
  check_bool "still connected" true (Bfs.is_connected (Handle.current h));
  let w = Graph.total_weight (Handle.current h) in
  check_int "weight preserved (no {u,v} self loop kept)" (6 - 1) w;
  (* split node 0: move one neighbor to the fresh node *)
  let neighbor =
    match
      List.find_opt
        (fun (x, _) -> x >= 0)
        (List.filter_map
           (fun v ->
             let wv = Handle.channel_weight h 0 v in
             if wv > 0 then Some (v, wv) else None)
           (List.init (Handle.n h) Fun.id))
    with
    | Some (v, _) -> v
    | None -> Alcotest.fail "merge left node 0 isolated"
  in
  (match Handle.apply h (Delta.Split_node { v = 0; w = 2; moved = [ neighbor ] }) with
  | Ok o -> check_bool "split renumbers" true o.Handle.renumbered
  | Error e -> Alcotest.fail e);
  check_int "node count grew" 6 (Handle.n h);
  check_int "bridge weight" 2 (Handle.channel_weight h 0 5);
  check_int "moved channel re-attached" 1 (Handle.channel_weight h 5 neighbor);
  check_int "old channel gone" 0 (Handle.channel_weight h 0 neighbor);
  check_bool "split: duplicate moved is Error" true
    (Result.is_error (Handle.apply h (Delta.Split_node { v = 0; w = 1; moved = [ 1; 1 ] })))

(* A session keeps the live graph, not its history: at the same point
   of a two-delta cycle its handle holds as many words after 20 000
   deltas as after 2 000. *)
let test_session_memory_flat () =
  let s = Api.open_session ~params:Params.fast (Generators.ring 8) in
  let apply k =
    for i = 1 to k do
      match Api.apply_delta s (Delta.Reweight { u = 0; v = 1; w = 1 + (i land 1) }) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e
    done
  in
  apply 2_000;
  let early = Obj.reachable_words (Obj.repr (Api.session_handle s)) in
  apply 18_000;
  check_int "version counts every delta" 20_000 (Handle.version (Api.session_handle s));
  check_int "handle words after 20 000 deltas = after 2 000" early
    (Obj.reachable_words (Obj.repr (Api.session_handle s)))

(* ---- the delta-stream generator --------------------------------------- *)

let test_generator_reproducible_and_valid () =
  let base = Generators.grid 4 4 in
  let gen seed = Generators.delta_stream ~rng:(Rng.create seed) ~wmax:4 ~base 60 in
  check_bool "same seed, same stream" true
    (List.map Delta.to_line (gen 9) = List.map Delta.to_line (gen 9));
  check_bool "different seed, different stream" true
    (List.map Delta.to_line (gen 9) <> List.map Delta.to_line (gen 10));
  (* every generated op applies cleanly and connectivity never breaks *)
  let h = Handle.of_graph base in
  List.iter
    (fun op ->
      (match Handle.apply h op with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Delta.to_line op ^ ": " ^ e));
      check_bool "stays connected" true (Bfs.is_connected (Handle.current h)))
    (gen 9)

(* ---- incremental answers ---------------------------------------------- *)

let test_incremental_lambda_stream () =
  (* unit weights, and weights past 10^9 that a per-unit structure
     could never hold *)
  let heavy =
    Generators.complete
      ~weights:{ Generators.wmin = 1_000_000_000; wmax = 2_000_000_000 }
      ~rng:(Rng.create 7) 8
  in
  List.iter
    (fun (name, base) ->
      let ops = Generators.delta_stream ~rng:(Rng.create 3) ~wmax:3 ~base 120 in
      let s = Api.open_session ~params:Params.fast base in
      check_int (name ^ ": initial λ") (lambda_of base) (Api.session_lambda s);
      List.iter
        (fun op ->
          match Api.apply_delta s op with
          | Error e -> Alcotest.fail (name ^ ": " ^ Delta.to_line op ^ ": " ^ e)
          | Ok (_, a) ->
              let live = Api.session_graph s in
              let at = name ^ ": " ^ Delta.to_line op in
              check_int (at ^ ": λ exact") (lambda_of live) a.Api.lambda;
              check_int (at ^ ": side achieves λ") a.Api.lambda
                (Graph.cut_of_bitset live (Api.session_side s)))
        ops;
      let st = Api.session_stats s in
      check_int (name ^ ": every delta answered") (List.length ops)
        (st.Incremental.reused + st.Incremental.cert_solves
        + st.Incremental.full_resolves);
      check_bool (name ^ ": some answers were reused") true
        (st.Incremental.reused > 0))
    [ ("torus4x4", Generators.torus 4 4); ("heavy K8", heavy) ]

(* each op kind lands in its tier: a pure increase is reused unless it
   crosses the side, anything that can lower λ or renumbers re-solves *)
let test_incremental_tiers () =
  let inc = Incremental.create (Generators.grid 4 4) in
  let find_edge crossing =
    let side = Incremental.side inc in
    match
      List.find_opt
        (fun e -> Bitset.mem side e.Graph.u <> Bitset.mem side e.Graph.v = crossing)
        (Array.to_list (Graph.edges (Incremental.graph inc)))
    with
    | Some e -> (e.Graph.u, e.Graph.v)
    | None -> Alcotest.fail "grid 4x4 has no such edge"
  in
  let expect name mode op =
    let gen = Incremental.generation inc in
    match Incremental.apply inc op with
    | Error e -> Alcotest.fail (name ^ ": " ^ e)
    | Ok (_, a) ->
        check_string name (Incremental.mode_name mode)
          (Incremental.mode_name a.Incremental.mode);
        check_int (name ^ ": generation")
          (if mode = Incremental.Reused then gen else gen + 1)
          (Incremental.generation inc);
        check_int (name ^ ": λ exact") (lambda_of (Incremental.graph inc))
          a.Incremental.lambda
  in
  let u, v = find_edge false in
  expect "non-crossing increase" Incremental.Reused
    (Delta.Add_edge { u; v; w = 1 });
  let cu, cv = find_edge true in
  expect "crossing increase" Incremental.Cert_solved
    (Delta.Add_edge { u = cu; v = cv; w = 1 });
  let ru, rv = if (u, v) = (cu, cv) then find_edge true else (u, v) in
  expect "remove" Incremental.Resolved (Delta.Remove_edge { u = ru; v = rv });
  expect "reweight down" Incremental.Resolved
    (Delta.Reweight { u = cu; v = cv; w = 1 });
  expect "merge" Incremental.Resolved (Delta.Merge_nodes { u = 0; v = 1 });
  expect "split" Incremental.Resolved
    (Delta.Split_node { v = 0; w = 1; moved = [] });
  let st = Incremental.stats inc in
  check_int "deltas applied" 6 st.Incremental.deltas_applied;
  check_int "counters sum to deltas applied" st.Incremental.deltas_applied
    (st.Incremental.reused + st.Incremental.cert_solves
    + st.Incremental.full_resolves)

(* ---- Api sessions ------------------------------------------------------ *)

let summaries_identical (a : Api.summary) (b : Api.summary) =
  a.Api.value = b.Api.value && a.Api.rounds = b.Api.rounds
  && Bitset.equal a.Api.side b.Api.side
  && a.Api.breakdown = b.Api.breakdown
  && Mincut_congest.Cost.equal a.Api.cost b.Api.cost

let test_session_anchor_reuse () =
  let g = Generators.grid 4 4 in
  let s = Api.open_session ~params:Params.fast g in
  let s0, hit0 = Api.min_cut_session s in
  check_bool "first solve is fresh" false hit0;
  check_int "solve agrees with certificate" (Api.session_lambda s) s0.Api.value;
  (* a weight increase that does not cross the anchored side keeps the
     proof alive: the summary is re-served without solving *)
  let side = Api.session_side s in
  let e =
    match
      List.find_opt
        (fun e -> Bitset.mem side e.Graph.u = Bitset.mem side e.Graph.v)
        (Array.to_list (Graph.edges (Api.session_graph s)))
    with
    | Some e -> e
    | None -> Alcotest.fail "no intra-side edge in a 4x4 grid?"
  in
  (match Api.apply_delta s (Delta.Add_edge { u = e.Graph.u; v = e.Graph.v; w = 1 }) with
  | Ok (_, a) -> check_bool "tier-1 reuse" true (a.Api.mode = Incremental.Reused)
  | Error err -> Alcotest.fail err);
  let s1, hit1 = Api.min_cut_session s in
  check_bool "anchored summary re-served" true hit1;
  check_bool "bit-identical to the anchor" true (summaries_identical s0 s1);
  (* a removal breaks the generation: the next solve is fresh and its
     value matches a from-scratch solve of the live graph *)
  (match Api.apply_delta s (Delta.Remove_edge { u = e.Graph.u; v = e.Graph.v }) with
  | Ok _ -> ()
  | Error err -> Alcotest.fail err);
  let s2, hit2 = Api.min_cut_session s in
  check_bool "generation break forces a solve" false hit2;
  check_int "fresh solve exact" (lambda_of (Api.session_graph s)) s2.Api.value

(* ---- qcheck properties ------------------------------------------------- *)

(* a random evolution: seeded base graph + seeded delta stream *)
let arbitrary_evolution =
  QCheck2.Gen.(
    let* gseed = int_range 0 100_000 in
    let* oseed = int_range 0 100_000 in
    let* n = int_range 4 10 in
    let* k = int_range 1 25 in
    return (gseed, oseed, n, k))

let base_of gseed n = Generators.gnp_connected ~rng:(Rng.create gseed) n 0.6

let ops_of oseed base k =
  Generators.delta_stream ~rng:(Rng.create oseed) ~wmax:3 ~base k

let qcheck_tests =
  [
    qtest ~count:60 "rolling digest = from-scratch hash of the live graph"
      arbitrary_evolution
      (fun (gseed, oseed, n, k) ->
        let base = base_of gseed n in
        let h = Handle.of_graph base in
        List.iter (fun op -> ignore (Handle.apply h op)) (ops_of oseed base k);
        Int64.equal (Handle.digest h) (Handle.digest (Handle.of_graph (Handle.current h))));
    qtest ~count:40 "incremental λ = stoer-wagner from scratch, every version"
      arbitrary_evolution
      (fun (gseed, oseed, n, k) ->
        let base = base_of gseed n in
        let s = Api.open_session ~params:Params.fast base in
        List.for_all
          (fun op ->
            match Api.apply_delta s op with
            | Error _ -> false
            | Ok (_, a) ->
                let live = Api.session_graph s in
                a.Api.lambda = lambda_of live
                && Graph.cut_of_bitset live (Api.session_side s) = a.Api.lambda)
          (ops_of oseed base k));
    qtest ~count:30
      "session solve after deltas = solve of the live graph reopened (bit-identical)"
      arbitrary_evolution
      (fun (gseed, oseed, n, k) ->
        let base = base_of gseed n in
        (* the evolved session's full summary must agree bit for bit
           with a fresh session opened on the graph it reached *)
        let s = Api.open_session ~params:Params.fast base in
        List.iter (fun op -> ignore (Api.apply_delta s op)) (ops_of oseed base k);
        let reopened = Api.open_session ~params:Params.fast (Api.session_graph s) in
        summaries_identical (fst (Api.min_cut_session s))
          (fst (Api.min_cut_session reopened)));
  ]

let suite =
  [
    tc "delta: parse/print roundtrip" test_delta_parse_roundtrip;
    tc "handle: apply semantics" test_handle_apply_semantics;
    tc "handle: merge and split renumbering" test_handle_merge_split;
    tc "generators: delta stream seeded and valid" test_generator_reproducible_and_valid;
    tc "incremental: λ exact along a 120-op stream" test_incremental_lambda_stream;
    tc "incremental: each op kind answers in its tier" test_incremental_tiers;
    tc "session: anchored summary reuse and generation breaks" test_session_anchor_reuse;
    tc "session: handle memory flat in the delta count" test_session_memory_flat;
  ]
  @ qcheck_tests
