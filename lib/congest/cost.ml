module Json = Mincut_util.Json

type provenance = Executed | Scheduled | Charged

type span = {
  label : string;
  rounds : int;
  provenance : provenance;
  children : span list;
  audit : Network.audit option;
}

type t = { rounds : int; spans : span list }

let provenance_name = function
  | Executed -> "executed"
  | Scheduled -> "scheduled"
  | Charged -> "charged"

let provenance_of_name = function
  | "executed" -> Some Executed
  | "scheduled" -> Some Scheduled
  | "charged" -> Some Charged
  | _ -> None

let provenance_equal a b =
  match (a, b) with
  | Executed, Executed | Scheduled, Scheduled | Charged, Charged -> true
  | (Executed | Scheduled | Charged), _ -> false

let zero = { rounds = 0; spans = [] }

let leaf ?audit provenance label rounds =
  (* explicit raise, not [assert]: the invariant must survive
     [-noassert] / release builds *)
  if rounds < 0 then
    invalid_arg (Printf.sprintf "Cost: %S: negative rounds %d" label rounds);
  { rounds; spans = [ { label; rounds; provenance; children = []; audit } ] }

let executed ?audit label rounds = leaf ?audit Executed label rounds
let scheduled label rounds = leaf Scheduled label rounds
let charged label rounds = leaf Charged label rounds
let leaf_audit t = match t.spans with [ s ] -> s.audit | _ -> None

(* Dominant provenance of a forest: a phase that ran any real program is
   [Executed]; otherwise an analytic schedule dominates a published
   bound.  A group span takes the dominant provenance of its children. *)
let dominant spans =
  let rec scan best = function
    | [] -> best
    | s :: rest ->
        if provenance_equal best Executed then Executed
        else
          let best =
            match (s.provenance, best) with
            | Executed, _ -> Executed
            | Scheduled, Charged -> Scheduled
            | _ -> best
          in
          scan (scan best s.children) rest
  in
  scan Charged spans

let group label t =
  let provenance = if t.spans = [] then Scheduled else dominant t.spans in
  {
    rounds = t.rounds;
    spans = [ { label; rounds = t.rounds; provenance; children = t.spans; audit = None } ];
  }

let ( ++ ) a b = { rounds = a.rounds + b.rounds; spans = a.spans @ b.spans }

(* one concat over the whole chain: folding [(++)] would rebuild the
   accumulated forest at every step, quadratic on long chains *)
let sum costs =
  {
    rounds = List.fold_left (fun acc c -> acc + c.rounds) 0 costs;
    spans = List.concat_map (fun c -> c.spans) costs;
  }

(* Derived flat view: the leaves in execution order.  Group spans are
   structural only, so a tree built by wrapping the seed's flat steps
   flattens back to the seed's exact breakdown. *)
let breakdown t =
  let rec of_span s =
    match s.children with
    | [] -> [ (s.label, s.rounds) ]
    | kids -> List.concat_map of_span kids
  in
  List.concat_map of_span t.spans

let audit_equal (a : Network.audit) (b : Network.audit) =
  a.Network.rounds = b.Network.rounds
  && a.Network.total_messages = b.Network.total_messages
  && a.Network.total_words = b.Network.total_words
  && a.Network.max_words = b.Network.max_words
  && a.Network.max_edge_load = b.Network.max_edge_load
  && a.Network.max_edge_words = b.Network.max_edge_words
  && Array.length a.Network.messages_per_round
     = Array.length b.Network.messages_per_round
  && Array.for_all2 Int.equal a.Network.messages_per_round
       b.Network.messages_per_round

let rec span_equal a b =
  String.equal a.label b.label
  && a.rounds = b.rounds
  && provenance_equal a.provenance b.provenance
  && Option.equal audit_equal a.audit b.audit
  && List.equal span_equal a.children b.children

let equal a b = a.rounds = b.rounds && List.equal span_equal a.spans b.spans

let pp fmt t =
  Format.fprintf fmt "@[<v>total rounds: %d" t.rounds;
  let rec emit depth (s : span) =
    Format.fprintf fmt "@ %6d  %-9s  %s%s" s.rounds
      (provenance_name s.provenance)
      (String.make (2 * depth) ' ')
      s.label;
    List.iter (emit (depth + 1)) s.children
  in
  List.iter (emit 0) t.spans;
  Format.fprintf fmt "@]"

(* ---- JSON ---------------------------------------------------------- *)

let audit_to_json (a : Network.audit) =
  Json.Obj
    [
      ("rounds", Json.Int a.Network.rounds);
      ("total_messages", Json.Int a.Network.total_messages);
      ("total_words", Json.Int a.Network.total_words);
      ("max_words", Json.Int a.Network.max_words);
      ("max_edge_load", Json.Int a.Network.max_edge_load);
      ("max_edge_words", Json.Int a.Network.max_edge_words);
      ( "messages_per_round",
        Json.List
          (Array.to_list
             (Array.map (fun x -> Json.Int x) a.Network.messages_per_round)) );
    ]

let rec span_to_json s =
  Json.Obj
    (List.concat
       [
         [
           ("label", Json.String s.label);
           ("rounds", Json.Int s.rounds);
           ("provenance", Json.String (provenance_name s.provenance));
         ];
         (if s.children = [] then []
          else [ ("children", Json.List (List.map span_to_json s.children)) ]);
         (match s.audit with
         | None -> []
         | Some a -> [ ("audit", audit_to_json a) ]);
       ])

let to_json t =
  Json.Obj
    [
      ("rounds", Json.Int t.rounds);
      ("spans", Json.List (List.map span_to_json t.spans));
    ]

let ( let* ) r f = Result.bind r f
let require what = function Some v -> Ok v | None -> Error ("Cost.of_json: " ^ what)

let audit_of_json j =
  let int_field name =
    require (name ^ " int") (Option.bind (Json.member name j) Json.to_int)
  in
  let* rounds = int_field "rounds" in
  let* total_messages = int_field "total_messages" in
  let* total_words = int_field "total_words" in
  let* max_words = int_field "max_words" in
  let* max_edge_load = int_field "max_edge_load" in
  let* max_edge_words = int_field "max_edge_words" in
  let* profile =
    require "messages_per_round list"
      (Option.bind (Json.member "messages_per_round" j) Json.to_list)
  in
  let* profile =
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* x = require "messages_per_round entry" (Json.to_int x) in
        Ok (x :: acc))
      (Ok []) profile
  in
  Ok
    {
      Network.rounds;
      total_messages;
      total_words;
      max_words;
      max_edge_load;
      max_edge_words;
      messages_per_round = Array.of_list (List.rev profile);
    }

let rec span_of_json j =
  let* label =
    require "span label" (Option.bind (Json.member "label" j) Json.to_str)
  in
  let* rounds =
    require "span rounds" (Option.bind (Json.member "rounds" j) Json.to_int)
  in
  let* prov_name =
    require "span provenance" (Option.bind (Json.member "provenance" j) Json.to_str)
  in
  let* provenance =
    require ("unknown provenance " ^ prov_name) (provenance_of_name prov_name)
  in
  let* children =
    match Json.member "children" j with
    | None -> Ok []
    | Some cj ->
        let* kids = require "children list" (Json.to_list cj) in
        spans_of_json kids
  in
  let* audit =
    match Json.member "audit" j with
    | None -> Ok None
    | Some aj ->
        let* a = audit_of_json aj in
        Ok (Some a)
  in
  Ok { label; rounds; provenance; children; audit }

and spans_of_json js =
  let* spans =
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* s = span_of_json j in
        Ok (s :: acc))
      (Ok []) js
  in
  Ok (List.rev spans)

let of_json j =
  let* rounds = require "rounds" (Option.bind (Json.member "rounds" j) Json.to_int) in
  let* spans = require "spans list" (Option.bind (Json.member "spans" j) Json.to_list) in
  let* spans = spans_of_json spans in
  Ok { rounds; spans }
