let to_string g =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "p %d %d\n" (Graph.n g) (Graph.m g);
  Graph.iter_edges (fun e -> Printf.bprintf buf "e %d %d %d\n" e.u e.v e.w) g;
  Buffer.contents buf

let write oc g = output_string oc (to_string g)

let parse_lines lines =
  let header = ref None in
  let edges = ref [] in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let fail msg =
        failwith (Printf.sprintf "Dimacs.read: line %d: %s" lineno msg)
      in
      let int_of s = try int_of_string s with Failure _ -> fail "bad integer" in
      let line = String.trim raw in
      if line = "" || line.[0] = 'c' then ()
      else
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ "p"; n; m ] -> (
            match !header with
            | Some _ -> fail "duplicate header"
            | None ->
                let n = int_of n in
                if n > Graph.max_nodes then
                  fail (Printf.sprintf "n=%d is above the cap of %d nodes" n Graph.max_nodes);
                header := Some (n, int_of m))
        | [ "e"; u; v; w ] -> edges := (int_of u, int_of v, int_of w) :: !edges
        | _ -> fail "unrecognized line")
    lines;
  match !header with
  | None -> failwith "Dimacs.read: missing header"
  | Some (n, m) ->
      if List.length !edges <> m then
        failwith
          (Printf.sprintf "Dimacs.read: header says %d edges, found %d" m
             (List.length !edges));
      Graph.create ~n (List.rev !edges)

let read ic =
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  parse_lines (List.rev !lines)

let of_string s = parse_lines (String.split_on_char '\n' s)

let save path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc g)

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)
