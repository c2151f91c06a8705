(* Algebraic laws and serialization round trips of the provenance-tagged
   cost span tree.  Random trees are built only through the public
   constructors, so every law is a statement about the exported algebra:
   [++] is associative with [zero] as identity, [par] commutes on
   rounds, and the total is always the sum of the leaves that bill
   (everything not hidden under an "(overlapped)" marker). *)

open Test_helpers
module Cost = Mincut_congest.Cost
module Primitives = Mincut_congest.Primitives

(* ---- generators ---------------------------------------------------- *)

let gen_label =
  QCheck2.Gen.(
    let* i = int_range 0 9 in
    return (Printf.sprintf "step%d" i))

let gen_leaf =
  QCheck2.Gen.(
    let* label = gen_label in
    let* rounds = int_range 0 20 in
    let* kind = int_range 0 2 in
    return
      (match kind with
      | 0 -> Cost.executed label rounds
      | 1 -> Cost.scheduled label rounds
      | _ -> Cost.charged label rounds))

(* [with_par:false] restricts to sequential composition, where the
   plain leaf-sum invariant must hold with no exclusions *)
let rec gen_cost ~with_par depth =
  QCheck2.Gen.(
    if depth = 0 then gen_leaf
    else
      let* choice = int_range 0 (if with_par then 3 else 2) in
      match choice with
      | 0 -> gen_leaf
      | 1 ->
          let* a = gen_cost ~with_par (depth - 1) in
          let* b = gen_cost ~with_par (depth - 1) in
          return (Cost.( ++ ) a b)
      | 2 ->
          let* label = gen_label in
          let* a = gen_cost ~with_par (depth - 1) in
          return (Cost.group label a)
      | _ ->
          let* a = gen_cost ~with_par (depth - 1) in
          let* b = gen_cost ~with_par (depth - 1) in
          return (Cost.par a b))

let gen_tree = gen_cost ~with_par:true 3
let gen_seq_tree = gen_cost ~with_par:false 3

let gen_pair = QCheck2.Gen.pair gen_tree gen_tree
let gen_triple = QCheck2.Gen.triple gen_tree gen_tree gen_tree

let has_prefix prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

let billed_rounds t =
  List.fold_left
    (fun acc (label, rounds) ->
      if has_prefix "(overlapped)" label then acc else acc + rounds)
    0 (Cost.breakdown t)

(* ---- qcheck laws --------------------------------------------------- *)

let qcheck_tests =
  [
    qtest "cost: (++) associative" gen_triple (fun (a, b, c) ->
        Cost.(equal (a ++ b ++ c) (a ++ (b ++ c))));
    qtest "cost: zero is identity" gen_tree (fun a ->
        Cost.(equal (zero ++ a) a && equal (a ++ zero) a));
    qtest "cost: par commutes on rounds" gen_pair (fun (a, b) ->
        (Cost.par a b).Cost.rounds = (Cost.par b a).Cost.rounds);
    qtest "cost: par rounds = max" gen_pair (fun (a, b) ->
        (Cost.par a b).Cost.rounds = max a.Cost.rounds b.Cost.rounds);
    qtest "cost: sum = iterated (++)" gen_triple (fun (a, b, c) ->
        Cost.(equal (sum [ a; b; c ]) (a ++ b ++ c)));
    qtest "cost: rounds = sum of leaf rounds (sequential)" gen_seq_tree
      (fun a ->
        a.Cost.rounds
        = List.fold_left (fun acc (_, r) -> acc + r) 0 (Cost.breakdown a));
    qtest "cost: rounds = sum of billed leaves (with par)" gen_tree (fun a ->
        a.Cost.rounds = billed_rounds a);
    qtest "cost: group preserves rounds and flat view" gen_tree (fun a ->
        let g = Cost.group "wrapper" a in
        g.Cost.rounds = a.Cost.rounds
        && Cost.breakdown g = Cost.breakdown a);
    qtest "cost: json round-trips" gen_tree (fun a ->
        match Cost.of_json (Cost.to_json a) with
        | Ok b -> Cost.equal a b
        | Error _ -> false);
  ]

(* ---- unit pins ----------------------------------------------------- *)

let sample () =
  Cost.(
    group "phase A" (executed "bfs (real)" 3 ++ scheduled "upcast" 4)
    ++ charged "kp bound" 5)

let test_pp_pinned () =
  let rendered = Format.asprintf "%a" Cost.pp (sample ()) in
  let expected =
    String.concat "\n"
      [
        "total rounds: 12";
        "     7  executed   phase A";
        "     3  executed     bfs (real)";
        "     4  scheduled    upcast";
        "     5  charged    kp bound";
      ]
  in
  Alcotest.(check string) "tree render" expected rendered

let test_provenance_names () =
  List.iter
    (fun p ->
      check_bool (Cost.provenance_name p ^ " round-trips") true
        (match Cost.provenance_of_name (Cost.provenance_name p) with
        | Some q -> Cost.provenance_equal p q
        | None -> false))
    [ Cost.Executed; Cost.Scheduled; Cost.Charged ];
  check_bool "unknown name rejected" true (Cost.provenance_of_name "guessed" = None)

let test_negative_rounds_rejected () =
  match Cost.scheduled "oops" (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative rounds must raise"

let test_json_keeps_audit () =
  let g = Generators.ring 6 in
  let _, cost = Primitives.bfs_tree g ~root:0 in
  check_bool "audit attached" true (Cost.leaf_audit cost <> None);
  match Cost.of_json (Cost.to_json cost) with
  | Ok back -> check_bool "audit survives json" true (Cost.equal cost back)
  | Error e -> Alcotest.fail e

let test_par_marks_loser () =
  let p = Cost.(par (scheduled "slow" 10) (scheduled "fast" 3)) in
  check_int "winner rounds" 10 p.Cost.rounds;
  check_bool "loser prefixed in flat view" true
    (List.mem ("(overlapped) fast", 3) (Cost.breakdown p))

let suite =
  [
    tc "cost: pp tree render pinned" test_pp_pinned;
    tc "cost: provenance names" test_provenance_names;
    tc "cost: negative rounds rejected" test_negative_rounds_rejected;
    tc "cost: json keeps the audit" test_json_keeps_audit;
    tc "cost: par marks the loser" test_par_marks_loser;
  ]
  @ qcheck_tests
