let to_string g =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "p %d %d\n" (Graph.n g) (Graph.m g);
  Graph.iter_edges (fun e -> Printf.bprintf buf "e %d %d %d\n" e.u e.v e.w) g;
  Buffer.contents buf

let write oc g = output_string oc (to_string g)

(* The blanks [String.trim] drops around a line. *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012' || c = '\n'

let fail lineno msg = failwith (Printf.sprintf "Dimacs.read: line %d: %s" lineno msg)

(* [s.[i .. stop-1]] as a decimal, or -1 on a non-digit *)
let rec decimal s i stop acc =
  if i = stop then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> decimal s (i + 1) stop ((acc * 10) + Char.code c - Char.code '0')
    | _ -> -1

(* The token [s.[a .. b-1]] as [int_of_string] reads it.  A plain
   decimal of at most 18 digits, signed or not, cannot overflow and is
   read in place; any other token goes to [int_of_string_opt]. *)
let int_token lineno s a b =
  let neg = s.[a] = '-' in
  let d = if neg then a + 1 else a in
  let v = if b > d && b - d <= 18 then decimal s d b 0 else -1 in
  if v >= 0 then if neg then -v else v
  else
    match int_of_string_opt (String.sub s a (b - a)) with
    | Some v -> v
    | None -> fail lineno "bad integer"

let rec line_end s len i = if i < len && s.[i] <> '\n' then line_end s len (i + 1) else i

let rec skip_blanks s i stop = if i < stop && is_blank s.[i] then skip_blanks s (i + 1) stop else i

let rec trim_blanks s lo i = if i > lo && is_blank s.[i - 1] then trim_blanks s lo (i - 1) else i

let rec word_end s i hi = if i < hi && s.[i] <> ' ' then word_end s (i + 1) hi else i

(* The tokens of [s.[i .. hi-1]], cut at runs of spaces: their count,
   with the bounds of the first five in [tok_a]/[tok_b]. *)
let rec tokens s tok_a tok_b i hi k =
  if i >= hi then k
  else if s.[i] = ' ' then tokens s tok_a tok_b (i + 1) hi k
  else begin
    let j = word_end s i hi in
    if k < 5 then begin
      tok_a.(k) <- i;
      tok_b.(k) <- j
    end;
    tokens s tok_a tok_b j hi (k + 1)
  end

(* One pass over [s].  Each line is trimmed of blanks, skipped when it is
   empty or starts with 'c', and cut into tokens held as offsets into
   [s]: [p n m] and [e u v w] are the only lines read. *)
let of_string s =
  let len = String.length s in
  let tok_a = Array.make 5 0 and tok_b = Array.make 5 0 in
  let header = ref false and hn = ref 0 and hm = ref 0 in
  let edges = ref [] and count = ref 0 in
  let rec line lineno a =
    let stop = line_end s len a in
    let lo = skip_blanks s a stop in
    let hi = trim_blanks s lo stop in
    if hi > lo && s.[lo] <> 'c' then begin
      let k = tokens s tok_a tok_b lo hi 0 in
      let tag = if tok_b.(0) = lo + 1 then s.[lo] else ' ' in
      if k = 3 && tag = 'p' then begin
        if !header then fail lineno "duplicate header";
        let n = int_token lineno s tok_a.(1) tok_b.(1) in
        if n > Graph.max_nodes then
          fail lineno (Printf.sprintf "n=%d is above the cap of %d nodes" n Graph.max_nodes);
        let m = int_token lineno s tok_a.(2) tok_b.(2) in
        if n < 1 then fail lineno (Printf.sprintf "n=%d is below the minimum of 1 node" n);
        if m < 0 then fail lineno (Printf.sprintf "m=%d is negative" m);
        header := true;
        hn := n;
        hm := m
      end
      else if k = 4 && tag = 'e' then begin
        let u = int_token lineno s tok_a.(1) tok_b.(1) in
        let v = int_token lineno s tok_a.(2) tok_b.(2) in
        let w = int_token lineno s tok_a.(3) tok_b.(3) in
        edges := (u, v, w) :: !edges;
        incr count
      end
      else fail lineno "unrecognized line"
    end;
    if stop < len then line (lineno + 1) (stop + 1)
  in
  line 1 0;
  if not !header then failwith "Dimacs.read: missing header";
  if !count <> !hm then
    failwith (Printf.sprintf "Dimacs.read: header says %d edges, found %d" !hm !count);
  let triples = Array.make !count (0, 0, 0) in
  List.iteri (fun i e -> triples.(!count - 1 - i) <- e) !edges;
  Graph.of_array ~n:!hn triples

let read ic = of_string (In_channel.input_all ic)

let save path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc g)

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)
