(* Algebraic laws and serialization round trips of the provenance-tagged
   cost span tree.  Random trees are built only through the public
   constructors, so every law is a statement about the exported algebra:
   [++] is associative with [zero] as identity, and the total is always
   the sum of the leaf rounds. *)

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

let rec gen_cost depth =
  QCheck2.Gen.(
    if depth = 0 then gen_leaf
    else
      let* choice = int_range 0 2 in
      match choice with
      | 0 -> gen_leaf
      | 1 ->
          let* a = gen_cost (depth - 1) in
          let* b = gen_cost (depth - 1) in
          return (Cost.( ++ ) a b)
      | _ ->
          let* label = gen_label in
          let* a = gen_cost (depth - 1) in
          return (Cost.group label a))

let gen_tree = gen_cost 3
let gen_triple = QCheck2.Gen.triple gen_tree gen_tree gen_tree

(* ---- qcheck laws --------------------------------------------------- *)

let qcheck_tests =
  [
    qtest "cost: (++) associative" gen_triple (fun (a, b, c) ->
        Cost.(equal (a ++ b ++ c) (a ++ (b ++ c))));
    qtest "cost: zero is identity" gen_tree (fun a ->
        Cost.(equal (zero ++ a) a && equal (a ++ zero) a));
    qtest "cost: sum = iterated (++)" gen_triple (fun (a, b, c) ->
        Cost.(equal (sum [ a; b; c ]) (a ++ b ++ c)));
    qtest "cost: rounds = sum of leaf rounds (sequential)" gen_tree
      (fun a ->
        a.Cost.rounds
        = List.fold_left (fun acc (_, r) -> acc + r) 0 (Cost.breakdown a));
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

let suite =
  [
    tc "cost: pp tree render pinned" test_pp_pinned;
    tc "cost: provenance names" test_provenance_names;
    tc "cost: negative rounds rejected" test_negative_rounds_rejected;
    tc "cost: json keeps the audit" test_json_keeps_audit;
  ]
  @ qcheck_tests
