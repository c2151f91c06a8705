type op =
  | Add_edge of { u : int; v : int; w : int }
  | Remove_edge of { u : int; v : int }
  | Reweight of { u : int; v : int; w : int }
  | Merge_nodes of { u : int; v : int }
  | Split_node of { v : int; w : int; moved : int list }

let to_line = function
  | Add_edge { u; v; w } -> Printf.sprintf "add %d %d %d" u v w
  | Remove_edge { u; v } -> Printf.sprintf "remove %d %d" u v
  | Reweight { u; v; w } -> Printf.sprintf "reweight %d %d %d" u v w
  | Merge_nodes { u; v } -> Printf.sprintf "merge %d %d" u v
  | Split_node { v; w; moved } ->
      Printf.sprintf "split %d %d %s" v w
        (match moved with
        | [] -> "-"
        | xs -> String.concat "," (List.map string_of_int xs))

let int_tok name s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name s)

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let parse_moved s =
  if s = "-" then Ok []
  else
    let parts = String.split_on_char ',' s |> List.filter (fun p -> p <> "") in
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        let* x = int_tok "split moved node" p in
        Ok (x :: acc))
      (Ok []) parts
    |> Result.map List.rev

let parse_tokens toks =
  match List.map String.lowercase_ascii toks with
  | [ "add"; u; v; w ] ->
      let* u = int_tok "u" u in
      let* v = int_tok "v" v in
      let* w = int_tok "w" w in
      Ok (Add_edge { u; v; w })
  | [ "remove"; u; v ] ->
      let* u = int_tok "u" u in
      let* v = int_tok "v" v in
      Ok (Remove_edge { u; v })
  | [ "reweight"; u; v; w ] ->
      let* u = int_tok "u" u in
      let* v = int_tok "v" v in
      let* w = int_tok "w" w in
      Ok (Reweight { u; v; w })
  | [ "merge"; u; v ] ->
      let* u = int_tok "u" u in
      let* v = int_tok "v" v in
      Ok (Merge_nodes { u; v })
  | [ "split"; v; w; moved ] ->
      let* v = int_tok "v" v in
      let* w = int_tok "w" w in
      let* moved = parse_moved moved in
      Ok (Split_node { v; w; moved })
  | [ "split"; v; w ] ->
      let* v = int_tok "v" v in
      let* w = int_tok "w" w in
      Ok (Split_node { v; w; moved = [] })
  | verb :: _ ->
      Error
        (Printf.sprintf
           "unknown or malformed delta op %S (expected add/remove/reweight/merge/split)"
           verb)
  | [] -> Error "empty delta op"

let parse line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  parse_tokens (String.split_on_char ' ' line |> List.filter (fun s -> s <> ""))

let read_stream path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines ->
      let rec go lineno acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
            let body =
              match String.index_opt line '#' with
              | Some i -> String.sub line 0 i
              | None -> line
            in
            if String.trim body = "" then go (lineno + 1) acc rest
            else
              match parse body with
              | Ok op -> go (lineno + 1) (op :: acc) rest
              | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
      in
      go 1 [] lines
