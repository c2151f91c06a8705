module Cost = Mincut_congest.Cost
module Network = Mincut_congest.Network
module Pipeline = Mincut_congest.Pipeline
module One_respect = Mincut_core.One_respect
module Params = Mincut_core.Params

type error = { path : string; law : string; detail : string }

let err path law detail = { path; law; detail }

let describe e = Printf.sprintf "%s: [%s] %s" e.path e.law e.detail

(* ---- structural laws ------------------------------------------------- *)

(* The invariants every well-formed span tree satisfies, whatever
   algorithm produced it:
   - executed-audit: an [Executed] leaf was measured on the engine, so
     it must carry the run's audit and agree with its round count;
   - audit-provenance: only executed leaves may carry audits;
   - leaf-sum: a group span's rounds are exactly its children's sum;
   - audit-profile: within an audit, the per-round congestion profile
     must sum to the message total;
   - total: the tree total is the sum of the top-level spans. *)
let check_tree (t : Cost.t) =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let check_audit path (a : Network.audit) =
    let profile_sum = Array.fold_left ( + ) 0 a.Network.messages_per_round in
    if profile_sum <> a.Network.total_messages then
      add
        (err path "audit-profile"
           (Printf.sprintf "messages_per_round sums to %d, total_messages is %d"
              profile_sum a.Network.total_messages));
    if a.Network.total_words < a.Network.max_words then
      add
        (err path "audit-words"
           (Printf.sprintf "total_words %d < max_words %d" a.Network.total_words
              a.Network.max_words))
  in
  let rec walk prefix (s : Cost.span) =
    let path = if prefix = "" then s.Cost.label else prefix ^ " / " ^ s.Cost.label in
    if s.Cost.rounds < 0 then
      add (err path "non-negative" (Printf.sprintf "rounds %d" s.Cost.rounds));
    Option.iter (check_audit path) s.Cost.audit;
    match s.Cost.children with
    | [] -> (
        match (s.Cost.provenance, s.Cost.audit) with
        | Cost.Executed, None ->
            add (err path "executed-audit" "executed leaf carries no engine audit")
        | Cost.Executed, Some a ->
            if a.Network.rounds <> s.Cost.rounds then
              add
                (err path "executed-audit"
                   (Printf.sprintf "span rounds %d <> audit rounds %d"
                      s.Cost.rounds a.Network.rounds))
        | (Cost.Scheduled | Cost.Charged), Some _ ->
            add
              (err path "audit-provenance"
                 "non-executed leaf carries an engine audit")
        | (Cost.Scheduled | Cost.Charged), None -> ())
    | kids ->
        if Option.is_some s.Cost.audit then
          add (err path "audit-provenance" "group span carries an audit");
        let sum =
          List.fold_left (fun acc (k : Cost.span) -> acc + k.Cost.rounds) 0 kids
        in
        if sum <> s.Cost.rounds then
          add
            (err path "leaf-sum"
               (Printf.sprintf "children sum to %d, span has %d" sum
                  s.Cost.rounds));
        List.iter (walk path) kids
  in
  List.iter (walk "") t.Cost.spans;
  let top =
    List.fold_left (fun acc (s : Cost.span) -> acc + s.Cost.rounds) 0 t.Cost.spans
  in
  if top <> t.Cost.rounds then
    add
      (err "(root)" "total"
         (Printf.sprintf "top-level spans sum to %d, tree total is %d" top
            t.Cost.rounds));
  List.rev !errors

(* ---- one-respect formula laws ---------------------------------------- *)

(* Every scheduled/charged leaf of the Theorem 2.1 tree is a published
   closed form over quantities measured from this very execution
   (One_respect.stats) plus Params.  Recompute each and compare. *)
let expected_leaves ~params (s : One_respect.stats) =
  let hb = s.One_respect.bfs_height in
  let maxh = s.One_respect.max_fragment_height in
  let k = s.One_respect.fragment_count in
  let n = s.One_respect.n in
  let cc = Pipeline.convergecast in
  let bc = Pipeline.broadcast in
  let up = Pipeline.upcast in
  [
    ( "bfs-tree (scheduled)", Cost.Scheduled, hb + 1 );
    ( "step1: KP partition (charged at KP bound)",
      Cost.Charged,
      Params.kp_partition_rounds params ~n ~diameter:hb );
    ( "step1: fragment id agreement",
      Cost.Scheduled,
      cc ~depth:maxh ~max_edge_load:1 + bc ~depth:maxh ~items:1 );
    ( "step1: broadcast T_F (k-1 inter-fragment edges)",
      Cost.Scheduled,
      let items = max 0 (k - 1) in
      up ~depth:hb ~items + bc ~depth:hb ~items );
    ( "step2: upcast child-fragment lists (F computation)",
      Cost.Scheduled,
      cc ~depth:maxh ~max_edge_load:s.One_respect.max_child_frag_load );
    ( "step2: downcast ancestor ids (A computation)",
      Cost.Scheduled,
      cc ~depth:(2 * maxh) ~max_edge_load:s.One_respect.max_ancestor_items );
    ( "step2: downcast parent-fragment extension (scheduled)",
      Cost.Scheduled,
      maxh + 1 );
    ( "step2: downcast F(u) for ancestors",
      Cost.Scheduled,
      cc ~depth:(2 * maxh) ~max_edge_load:s.One_respect.max_f_items );
    ( "step3: within-fragment delta sums",
      Cost.Scheduled,
      cc ~depth:maxh ~max_edge_load:1 );
    ( "step3: broadcast delta(F_i) for all fragments",
      Cost.Scheduled,
      up ~depth:hb ~items:k + bc ~depth:hb ~items:k );
    ( "step4: local merging-node detection", Cost.Scheduled, 1 );
    ( "step4: broadcast merging nodes and T'F edges",
      Cost.Scheduled,
      let items =
        s.One_respect.merging_count + max 0 (s.One_respect.tf_prime_size - 1)
      in
      up ~depth:hb ~items + bc ~depth:hb ~items );
    ( "step5: per-edge LCA (1 frag exchange + list exchanges)",
      Cost.Scheduled,
      1 + Pipeline.exchange ~items:s.One_respect.max_lca_exchange );
    ( "step5: count type-(i) messages over BFS tree",
      Cost.Scheduled,
      let m = max 1 s.One_respect.case2_lca_count in
      cc ~depth:hb ~max_edge_load:m + bc ~depth:hb ~items:m );
    ( "step5: count type-(ii) messages within fragments",
      Cost.Scheduled,
      cc ~depth:maxh ~max_edge_load:(maxh + 1) );
    ( "step5: rho_down aggregation (delta_down machinery)",
      Cost.Scheduled,
      cc ~depth:maxh ~max_edge_load:1 + up ~depth:hb ~items:k
      + bc ~depth:hb ~items:k );
    ( "finish: global min convergecast + broadcast",
      Cost.Scheduled,
      cc ~depth:hb ~max_edge_load:1 + bc ~depth:hb ~items:1 );
  ]

(* A label-table check can silently go vacuous if the producer renames
   its spans; demand a healthy number of matches.  A run (either
   parameter mode) carries at least this many formula leaves. *)
let min_formula_matches = 10

(* Theorem 2.1 is five numbered steps: the tree's top level must be
   exactly those five groups, in order, each with its sub-steps. *)
let step_shape (t : Cost.t) =
  let steps = List.init 5 (fun i -> Printf.sprintf "Step %d: " (i + 1)) in
  if List.compare_lengths t.Cost.spans steps <> 0 then
    [
      err "(root)" "step-shape"
        (Printf.sprintf "expected 5 top-level Step spans, got %d"
           (List.length t.Cost.spans));
    ]
  else
    List.concat
      (List.map2
         (fun prefix (s : Cost.span) ->
           if not (String.starts_with ~prefix s.Cost.label) then
             [ err s.Cost.label "step-shape" ("does not start with " ^ prefix) ]
           else if s.Cost.children = [] then
             [ err s.Cost.label "step-shape" "step has no children" ]
           else [])
         steps t.Cost.spans)

let check_one_respect ?(params = Params.default) (r : One_respect.result) =
  let table = expected_leaves ~params r.One_respect.stats in
  let errors = ref [] in
  let matched = ref 0 in
  let rec walk prefix (s : Cost.span) =
    let path = if prefix = "" then s.Cost.label else prefix ^ " / " ^ s.Cost.label in
    match s.Cost.children with
    | [] -> (
        match
          List.find_opt (fun (l, _, _) -> String.equal l s.Cost.label) table
        with
        | None -> ()
        | Some (_, prov, rounds) ->
            incr matched;
            if not (Cost.provenance_equal prov s.Cost.provenance) then
              errors :=
                err path "formula-provenance"
                  (Printf.sprintf "expected %s, tree has %s"
                     (Cost.provenance_name prov)
                     (Cost.provenance_name s.Cost.provenance))
                :: !errors;
            if rounds <> s.Cost.rounds then
              errors :=
                err path "formula"
                  (Printf.sprintf
                     "recomputed closed form gives %d rounds, tree has %d"
                     rounds s.Cost.rounds)
                :: !errors)
    | kids -> List.iter (walk path) kids
  in
  List.iter (walk "") r.One_respect.cost.Cost.spans;
  let coverage =
    if !matched >= min_formula_matches then []
    else
      [
        err "(root)" "formula-coverage"
          (Printf.sprintf
             "only %d formula leaves matched the label table (need >= %d); \
              labels drifted?"
             !matched min_formula_matches);
      ]
  in
  check_tree r.One_respect.cost
  @ step_shape r.One_respect.cost
  @ List.rev !errors @ coverage
