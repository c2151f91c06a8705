module Json = Mincut_util.Json

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else Int.compare a.col b.col

(* ---- allowlist -------------------------------------------------------- *)

module Allow = struct
  type entry = { rule : string; path : string; line_no : int option; raw : string }

  type t = entry list

  let empty = []

  let parse_entry ~known lineno raw =
    let body =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    match
      String.split_on_char ' ' (String.trim body)
      |> List.filter (fun s -> s <> "")
    with
    | [] -> Ok None
    | [ rule; target ] ->
        if not (known rule) then
          Error (Printf.sprintf "line %d: unknown rule %S" lineno rule)
        else
          let path, line_no =
            match String.rindex_opt target ':' with
            | Some i -> (
                let p = String.sub target 0 i in
                let l = String.sub target (i + 1) (String.length target - i - 1) in
                match int_of_string_opt l with
                | Some l -> (p, Some l)
                | None -> (target, None))
            | None -> (target, None)
          in
          Ok (Some { rule; path; line_no; raw = String.trim body })
    | _ -> Error (Printf.sprintf "line %d: expected 'rule path[:line]'" lineno)

  let of_lines ~known lines =
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc)
      | l :: rest -> (
          match parse_entry ~known lineno l with
          | Error _ as e -> e
          | Ok None -> go acc (lineno + 1) rest
          | Ok (Some e) -> go (e :: acc) (lineno + 1) rest)
    in
    go [] 1 lines

  let load ~known path =
    match In_channel.with_open_text path In_channel.input_lines with
    | exception Sys_error e -> Error e
    | lines -> of_lines ~known lines

  let path_matches ~entry_path ~file =
    file = entry_path
    || (let suffix = "/" ^ entry_path in
        String.length file > String.length suffix
        && String.sub file (String.length file - String.length suffix)
             (String.length suffix)
           = suffix)

  let matches (e : entry) (f : finding) =
    e.rule = f.rule
    && path_matches ~entry_path:e.path ~file:f.file
    && match e.line_no with None -> true | Some l -> l = f.line

  let filter t findings =
    List.filter (fun f -> not (List.exists (fun e -> matches e f) t)) findings

  let unused t findings =
    t
    |> List.filter (fun e -> not (List.exists (fun f -> matches e f) findings))
    |> List.map (fun e -> e.raw)
end

(* ---- output ----------------------------------------------------------- *)

let to_json findings =
  Json.Obj
    [
      ( "findings",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("file", Json.String f.file);
                   ("line", Json.Int f.line);
                   ("col", Json.Int f.col);
                   ("rule", Json.String f.rule);
                   ("message", Json.String f.message);
                 ])
             findings) );
      ("count", Json.Int (List.length findings));
    ]

let pp_findings fmt findings =
  List.iter
    (fun f ->
      Format.fprintf fmt "%s:%d:%d: %s: %s@." f.file f.line f.col f.rule f.message)
    findings
