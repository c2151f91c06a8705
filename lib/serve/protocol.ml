module Api = Mincut_core.Api
module Delta = Mincut_graph.Delta

type source =
  | Named of string
  | Family of { family : string; size : int; gseed : int; weight_max : int }
  | Session of string

type solve_args = {
  source : source;
  algorithm : Api.algorithm;
  seed : int;
  trees : int option;
  priority : int;
  deadline_ms : float option;
}

type estimate_args = { esource : source; eseed : int; etrials : int option }

type command =
  | Graph_def of { name : string; n : int; m : int }
  | Solve of solve_args
  | Submit of solve_args
  | Estimate of estimate_args
  | Session_open of { sname : string; ssource : source }
  | Delta_op of { sname : string; dop : Delta.op }
  | Flush
  | Stats
  | Ping
  | Help
  | Quit
  | Shutdown
  | Nop

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let kv_args toks =
  List.fold_left
    (fun acc tok ->
      let* acc = acc in
      match String.index_opt tok '=' with
      | Some i ->
          let k = String.sub tok 0 i in
          let v = String.sub tok (i + 1) (String.length tok - i - 1) in
          Ok ((String.lowercase_ascii k, v) :: acc)
      | None -> Error (Printf.sprintf "expected key=value, got %S" tok))
    (Ok []) toks

let int_arg args key default =
  match List.assoc_opt key args with
  | None -> Ok default
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "%s: expected an integer, got %S" key v))

let float_arg args key =
  match List.assoc_opt key args with
  | None -> Ok None
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> Ok (Some f)
      | None -> Error (Printf.sprintf "%s: expected a number, got %S" key v))

let parse_source args =
  match
    ( List.assoc_opt "graph" args,
      List.assoc_opt "family" args,
      List.assoc_opt "session" args )
  with
  | Some name, None, None -> Ok (Named name)
  | None, Some family, None ->
      let* size = int_arg args "size" 64 in
      let* gseed = int_arg args "gseed" 0 in
      let* weight_max = int_arg args "wmax" 1 in
      Ok (Family { family; size; gseed; weight_max })
  | None, None, Some name -> Ok (Session name)
  | None, None, None ->
      Error "missing graph source: graph=<name>, family=<fam> or session=<name>"
  | _ -> Error "give exactly one of graph=, family= or session="

let parse_solve_args toks =
  let* args = kv_args toks in
  let* source = parse_source args in
  let* epsilon =
    let* e = float_arg args "epsilon" in
    Ok (Option.value e ~default:0.5)
  in
  let* algorithm =
    match List.assoc_opt "algo" args with
    | None -> Ok Api.Exact_small_lambda
    | Some name -> Api.algorithm_of_name ~epsilon (String.lowercase_ascii name)
  in
  let* seed = int_arg args "seed" 0 in
  let* trees =
    match List.assoc_opt "trees" args with
    | None -> Ok None
    | Some v -> (
        match int_of_string_opt v with
        | Some i -> Ok (Some i)
        | None -> Error (Printf.sprintf "trees: expected an integer, got %S" v))
  in
  let* priority = int_arg args "priority" 0 in
  let* deadline_ms = float_arg args "deadline-ms" in
  Ok { source; algorithm; seed; trees; priority; deadline_ms }

let parse_estimate_args toks =
  let* args = kv_args toks in
  let* esource = parse_source args in
  let* eseed = int_arg args "seed" 0 in
  let* etrials =
    match List.assoc_opt "trials" args with
    | None -> Ok None
    | Some v -> (
        match int_of_string_opt v with
        | Some i when i >= 1 -> Ok (Some i)
        | _ -> Error (Printf.sprintf "trials: expected a positive integer, got %S" v))
  in
  Ok { esource; eseed; etrials }

let strip_comment line =
  match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line

(* A [GRAPH <name> <n> <m>] header.  A rejected one still carries its m,
   when m parses, as the number of edge lines it announced. *)
let graph_header = function
  | [ name; n; m ] -> (
      let m = int_of_string_opt m in
      let payload = match m with Some m when m >= 0 -> m | _ -> 0 in
      match (int_of_string_opt n, m) with
      (* n is capped before anything is built, at the cap the generator
         families share *)
      | Some n, Some m when n > Mincut_graph.Graph.max_nodes && m >= 0 ->
          Error
            ( Printf.sprintf "GRAPH: n=%d is above the cap of %d nodes" n
                Mincut_graph.Graph.max_nodes,
              payload )
      | Some n, Some m when n >= 2 && m >= 0 -> Ok (Graph_def { name; n; m })
      | _ -> Error ("GRAPH: bad <n> or <m>", payload))
  | _ -> Error ("usage: GRAPH <name> <n> <m>", 0)

let parse_verb verb rest =
  match verb with
  | "SOLVE" ->
      let* args = parse_solve_args rest in
      Ok (Solve args)
  | "SUBMIT" ->
      let* args = parse_solve_args rest in
      Ok (Submit args)
  | "ESTIMATE" ->
      let* args = parse_estimate_args rest in
      Ok (Estimate args)
  | "SESSION" -> (
      match rest with
      | name :: srcs ->
          let* args = kv_args srcs in
          let* ssource = parse_source args in
          Ok (Session_open { sname = name; ssource })
      | [] -> Error "usage: SESSION <name> graph=<g>|family=<fam> [...]")
  | "DELTA" -> (
      match rest with
      | name :: optoks ->
          let* dop = Delta.parse_tokens optoks in
          Ok (Delta_op { sname = name; dop })
      | [] -> Error "usage: DELTA <name> add|remove|reweight|merge|split ...")
  | "FLUSH" -> Ok Flush
  | "STATS" -> Ok Stats
  | "PING" -> Ok Ping
  | "HELP" -> Ok Help
  | "QUIT" -> Ok Quit
  | "SHUTDOWN" -> Ok Shutdown
  | other -> Error (Printf.sprintf "unknown verb %S (try HELP)" other)

let parse_with_payload line =
  match tokens (strip_comment line) with
  | [] -> Ok Nop
  | verb :: rest -> (
      match String.uppercase_ascii verb with
      | "GRAPH" -> graph_header rest
      | verb -> Result.map_error (fun e -> (e, 0)) (parse_verb verb rest))

let parse line = Result.map_error fst (parse_with_payload line)

let format_response (r : Request.response) =
  Printf.sprintf "value=%d rounds=%d cached=%b ms=%.3f key=%s"
    r.Request.summary.Api.value r.Request.summary.Api.rounds r.Request.cached
    r.Request.elapsed_ms r.Request.key

let format_estimate ~elapsed_ms (r : Mincut_core.Sample_estimate.result) =
  Printf.sprintf
    "estimate=%d lower=%d upper=%d level=%d trials=%d rounds=%d saturated=%b \
     ms=%.3f"
    r.Mincut_core.Sample_estimate.estimate r.Mincut_core.Sample_estimate.lower
    r.Mincut_core.Sample_estimate.upper r.Mincut_core.Sample_estimate.level
    r.Mincut_core.Sample_estimate.trials_per_level
    r.Mincut_core.Sample_estimate.cost.Mincut_congest.Cost.rounds
    r.Mincut_core.Sample_estimate.saturated elapsed_ms

let help_lines =
  [
    "GRAPH <name> <n> <m>   register a graph; next m lines: u v w";
    "SOLVE graph=<name>|family=<fam>|session=<s> [size= gseed= wmax=] [algo=exact|exact2|approx|gk|su] [epsilon=] [seed=] [trees=]";
    "SUBMIT <solve args> [priority=] [deadline-ms=]   -> QUEUED <ticket>";
    "ESTIMATE graph=<name>|family=<fam>|session=<s> [size= gseed= wmax=] [seed=] [trials=]   sampling-ladder bracket on λ";
    "SESSION <name> graph=<g>|family=<fam> [...]   open a mutable versioned session";
    "DELTA <name> add u v w | remove u v | reweight u v w | merge u v | split v w x1,..   apply one delta, answer λ incrementally";
    "FLUSH                  run pending batches -> SHED/RESULT lines + DONE";
    "STATS                  one-line JSON metrics snapshot";
    "PING | HELP | QUIT | SHUTDOWN";
  ]
