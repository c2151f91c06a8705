module Rng = Mincut_util.Rng

type weights = { wmin : int; wmax : int }

let draw_weight ?weights ?rng () =
  match (weights, rng) with
  | None, _ -> 1
  | Some { wmin; wmax }, _ when wmin = wmax -> wmin
  | Some { wmin; wmax }, Some rng -> Rng.int_in rng wmin wmax
  | Some _, None -> invalid_arg "Generators: weight range requires an rng"

let path ?weights ?rng n =
  assert (n >= 1);
  Graph.create ~n
    (List.init (n - 1) (fun i -> (i, i + 1, draw_weight ?weights ?rng ())))

let ring ?weights ?rng n =
  assert (n >= 3);
  Graph.create ~n
    (List.init n (fun i -> (i, (i + 1) mod n, draw_weight ?weights ?rng ())))

let complete ?weights ?rng n =
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      acc := (u, v, draw_weight ?weights ?rng ()) :: !acc
    done
  done;
  Graph.create ~n !acc

let grid rows cols =
  assert (rows >= 1 && cols >= 1);
  let id r c = (r * cols) + c in
  let acc = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then acc := (id r c, id r (c + 1), 1) :: !acc;
      if r + 1 < rows then acc := (id r c, id (r + 1) c, 1) :: !acc
    done
  done;
  Graph.create ~n:(rows * cols) !acc

let torus rows cols =
  assert (rows >= 3 && cols >= 3);
  let id r c = (r * cols) + c in
  let acc = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      acc := (id r c, id r ((c + 1) mod cols), 1) :: !acc;
      acc := (id r c, id ((r + 1) mod rows) c, 1) :: !acc
    done
  done;
  Graph.create ~n:(rows * cols) !acc

let hypercube d =
  assert (d >= 1 && d <= 20);
  let n = 1 lsl d in
  let acc = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to d - 1 do
      let u = v lxor (1 lsl b) in
      if u > v then acc := (v, u, 1) :: !acc
    done
  done;
  Graph.create ~n !acc

let wheel n =
  assert (n >= 4);
  let rim = n - 1 in
  let acc = ref [] in
  for i = 1 to rim do
    acc := (0, i, 1) :: !acc;
    acc := (i, (i mod rim) + 1, 1) :: !acc
  done;
  Graph.create ~n !acc

let caterpillar spine legs =
  assert (spine >= 1 && legs >= 0);
  let acc = ref [] in
  let next = ref spine in
  for i = 0 to spine - 1 do
    if i + 1 < spine then acc := (i, i + 1, 1) :: !acc;
    for _ = 1 to legs do
      acc := (i, !next, 1) :: !acc;
      incr next
    done
  done;
  Graph.create ~n:!next !acc

let clique_edges ~offset k =
  let acc = ref [] in
  for u = 0 to k - 1 do
    for v = u + 1 to k - 1 do
      acc := (offset + u, offset + v, 1) :: !acc
    done
  done;
  !acc

let barbell k =
  assert (k >= 2);
  let edges = clique_edges ~offset:0 k @ clique_edges ~offset:k k in
  Graph.create ~n:(2 * k) ((k - 1, k, 1) :: edges)

let gnp ~rng ?weights n p =
  assert (n >= 1 && p >= 0.0 && p <= 1.0);
  (* Collect the streamed edge sequence; prepending keeps the edge-id
     order (and hence every seeded replay) identical to the historical
     in-place loop this function used before Edge_stream existed. *)
  let acc = ref [] in
  Edge_stream.gnp ~rng ~n ~p
    ~weight:(fun () -> draw_weight ?weights ~rng ())
    ~emit:(fun u v w -> acc := (u, v, w) :: !acc);
  Graph.create ~n !acc

let gnp_connected ~rng ?weights n p =
  let rec go tries =
    if tries = 0 then failwith "Generators.gnp_connected: p too small to connect";
    let g = gnp ~rng ?weights n p in
    if Bfs.is_connected g then g else go (tries - 1)
  in
  go 100

let random_tree ~rng ?weights n =
  assert (n >= 1);
  Graph.create ~n
    (List.init (n - 1) (fun i ->
         let v = i + 1 in
         (Rng.int rng v, v, draw_weight ?weights ~rng ())))

let random_regular ~rng ?weights n d =
  if n * d mod 2 <> 0 || d >= n || d < 1 then
    invalid_arg "Generators.random_regular: need n*d even and 1 <= d < n";
  let attempt () =
    let stubs = Array.init (n * d) (fun i -> i / d) in
    Rng.shuffle rng stubs;
    let seen = Hashtbl.create (n * d) in
    let acc = ref [] in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n * d do
      let u = stubs.(!i) and v = stubs.(!i + 1) in
      let key = (min u v, max u v) in
      if u = v || Hashtbl.mem seen key then ok := false
      else begin
        Hashtbl.add seen key ();
        acc := (u, v, draw_weight ?weights ~rng ()) :: !acc
      end;
      i := !i + 2
    done;
    if !ok then Some (Graph.create ~n !acc) else None
  in
  let rec go tries =
    if tries = 0 then failwith "Generators.random_regular: too many collisions"
    else match attempt () with Some g -> g | None -> go (tries - 1)
  in
  go 1000

let planted_cut ~rng ?weights ~n ~cut_edges ~p_in () =
  assert (n >= 4 && cut_edges >= 1);
  let half = n / 2 in
  let size_b = n - half in
  let connect_half ~offset ~size =
    (* dense half plus a Hamiltonian path to guarantee connectivity *)
    let g = gnp ~rng ?weights size p_in in
    let inner =
      Graph.fold_edges
        (fun acc e -> (offset + e.Graph.u, offset + e.Graph.v, e.Graph.w) :: acc)
        [] g
    in
    let spine =
      List.init (size - 1) (fun i ->
          (offset + i, offset + i + 1, draw_weight ?weights ~rng ()))
    in
    (* drop duplicate spine edges already present: multigraph is fine for
       our algorithms, but keeping it simple we just allow parallels *)
    inner @ spine
  in
  let cross =
    List.init cut_edges (fun _ -> (Rng.int rng half, half + Rng.int rng size_b, 1))
  in
  Graph.create ~n (connect_half ~offset:0 ~size:half @ connect_half ~offset:half ~size:size_b @ cross)

let path_of_cliques ~clique ~length =
  assert (clique >= 3 && length >= 1);
  let acc = ref [] in
  for i = 0 to length - 1 do
    acc := clique_edges ~offset:(i * clique) clique @ !acc;
    if i + 1 < length then begin
      (* two parallel links between consecutive cliques: λ = 2 *)
      acc := ((i * clique) + clique - 1, (i + 1) * clique, 1) :: !acc;
      acc := ((i * clique) + clique - 2, ((i + 1) * clique) + 1, 1) :: !acc
    end
  done;
  Graph.create ~n:(clique * length) !acc

let spider ~legs ~leg_length =
  assert (legs >= 1 && leg_length >= 1);
  let n = (legs * leg_length) + 1 in
  let acc = ref [] in
  for l = 0 to legs - 1 do
    let base = 1 + (l * leg_length) in
    acc := (0, base, 1) :: !acc;
    for i = 0 to leg_length - 2 do
      acc := (base + i, base + i + 1, 1) :: !acc
    done
  done;
  Graph.create ~n !acc

let dumbbell k bridge_nodes =
  assert (k >= 2 && bridge_nodes >= 0);
  let n = (2 * k) + bridge_nodes in
  let left = clique_edges ~offset:0 k in
  let right = clique_edges ~offset:(k + bridge_nodes) k in
  let chain =
    List.init (bridge_nodes + 1) (fun i -> (k - 1 + i, k + i, 1))
  in
  Graph.create ~n (left @ right @ chain)

let family_names =
  [ "path"; "ring"; "complete"; "grid"; "torus"; "hypercube"; "wheel"; "barbell";
    "spider"; "cliques-path"; "random-tree"; "regular"; "gnp"; "planted" ]

let max_edges = 1 lsl 24

(* saturating arithmetic on non-negative ints: a product or sum past
   [max_int] reads as [max_int], which is above every cap *)
let sat_mul a b = if a = 0 || b <= max_int / a then a * b else max_int
let sat_add a b = if b <= max_int - a then a + b else max_int

(* an expected count, rounded up and saturated *)
let sat_of_float x = if x >= float_of_int max_int then max_int else int_of_float (Float.ceil x)

(* the smallest size each family accepts *)
let min_size = function
  | "ring" | "torus" -> 3
  | "wheel" | "planted" -> 4
  | "regular" -> 5
  | "barbell" -> 2
  | _ -> 1

(* [by_name]'s p for gnp: supercritical, 8 ln n / n *)
let gnp_p size = Float.min 1.0 (8.0 *. log (float_of_int size) /. float_of_int size)

(* (nodes, edges) of family [name] at [size] in closed form, [None] for
   an unknown name; a negative size counts as 0 *)
let counts ~name ~size =
  let s = max 0 size in
  let dec k = max 0 (k - 1) in
  let sq = sat_mul s s in
  let pairs k =
    let p = sat_mul k (dec k) in
    if p = max_int then max_int else p / 2
  in
  match name with
  | "path" | "random-tree" -> Some (s, dec s)
  | "ring" -> Some (s, s)
  | "complete" -> Some (s, pairs s)
  | "grid" -> Some (sq, sat_mul 2 (sat_mul s (dec s)))
  | "torus" -> Some (sq, sat_mul 2 sq)
  | "hypercube" ->
      if s >= Sys.int_size - 1 then Some (max_int, max_int)
      else Some (1 lsl s, sat_mul s (1 lsl dec s))
  | "wheel" -> Some (s, sat_mul 2 (dec s))
  | "barbell" -> Some (sat_mul 2 s, sat_add (sat_mul 2 (pairs s)) 1)
  | "spider" -> Some (sat_add (sat_mul 4 sq) 1, sat_mul 4 sq)
  | "cliques-path" -> Some (sat_mul 8 s, sat_add (sat_mul 28 s) (sat_mul 2 (dec s)))
  | "regular" -> Some (s, sat_mul 2 s)
  | "gnp" -> Some (s, if s < 2 then 0 else sat_of_float (gnp_p s *. float_of_int (pairs s)))
  | "planted" ->
      let h1 = s / 2 in
      let h2 = s - h1 in
      (* two G(h, 0.4) halves, a spine through each, three cross edges *)
      let halves = 0.4 *. (float_of_int (pairs h1) +. float_of_int (pairs h2)) in
      Some (s, sat_of_float (halves +. float_of_int (dec h1 + dec h2 + 3)))
  | _ -> None

let check_size ~name ~size =
  let count x = if x = max_int then "more than max_int" else string_of_int x in
  match counts ~name ~size with
  | None -> Error (Printf.sprintf "unknown family %S" name)
  | Some _ when size < min_size name ->
      Error (Printf.sprintf "family %s needs size >= %d, got %d" name (min_size name) size)
  | Some (n, _) when n > Graph.max_nodes ->
      Error
        (Printf.sprintf "family %s at size %d has %s nodes, above the cap of %d" name size
           (count n) Graph.max_nodes)
  | Some (_, m) when m > max_edges ->
      Error
        (Printf.sprintf "family %s at size %d has %s edges, above the cap of %d" name size
           (count m) max_edges)
  | Some nm -> Ok nm

let by_name ~rng ?weights ~name ~size () =
  let build () =
    match name with
    | "path" -> path ?weights ~rng size
    | "ring" -> ring ?weights ~rng size
    | "complete" -> complete ?weights ~rng size
    | "grid" -> grid size size
    | "torus" -> torus size size
    | "hypercube" -> hypercube size
    | "wheel" -> wheel size
    | "barbell" -> barbell size
    | "spider" -> spider ~legs:size ~leg_length:(4 * size)
    | "cliques-path" -> path_of_cliques ~clique:8 ~length:size
    | "random-tree" -> random_tree ~rng ?weights size
    | "regular" -> random_regular ~rng ?weights size 4
    | "gnp" -> gnp_connected ~rng ?weights size (gnp_p size)
    | "planted" -> planted_cut ~rng ?weights ~n:size ~cut_edges:3 ~p_in:0.4 ()
    | other -> invalid_arg (Printf.sprintf "Generators.by_name: no builder for %S" other)
  in
  (* [check_size] refuses every name [counts] does not know, and the
     tests keep [counts] and [build] to the same families *)
  Result.map (fun _ -> build ()) (check_size ~name ~size)

(* ------------------------------------------------------------------ *)
(* Seeded delta streams: reproducible edge churn over a base graph    *)
(* ------------------------------------------------------------------ *)

let delta_stream ~rng ?(wmax = 4) ~base ops =
  if wmax < 1 then invalid_arg "delta_stream: wmax must be >= 1";
  let h = Handle.of_graph base in
  let out = ref [] in
  let emit op =
    match Handle.apply h op with
    | Ok _ ->
        out := op :: !out;
        true
    | Error _ -> false
  in
  let try_add () =
    (* a uniform absent pair, by rejection; on a near-complete graph the
       attempts run out and the step degrades to nothing *)
    let n = Handle.n h in
    let rec attempt k =
      if k = 0 then false
      else
        let u = Mincut_util.Rng.int rng n and v = Mincut_util.Rng.int rng n in
        if u = v || Handle.channel_weight h u v > 0 then attempt (k - 1)
        else
          emit
            (Delta.Add_edge
               { u = min u v; v = max u v; w = 1 + Mincut_util.Rng.int rng wmax })
    in
    attempt 32
  in
  let pick_channel () =
    let chans = Handle.channel_array h in
    if Array.length chans = 0 then None
    else Some (Mincut_util.Rng.choose rng chans)
  in
  let try_reweight () =
    match pick_channel () with
    | None -> false
    | Some (u, v, w) ->
        let w' = 1 + Mincut_util.Rng.int rng wmax in
        (* never a no-op: nudge off the current weight *)
        let w' = if w' = w then (if w >= wmax then max 1 (w - 1) else w + 1) else w' in
        if w' = w then false else emit (Delta.Reweight { u; v; w = w' })
  in
  let try_remove () =
    (* connectivity-preserving: only non-bridge channels are candidates,
       and a density floor keeps the stream from thinning the graph to a
       tree (where every removal would disconnect) *)
    if Handle.channels h <= Handle.n h then false
    else
      let g = Handle.current h in
      let is_bridge = Array.make (max 1 (Graph.m g)) false in
      List.iter (fun id -> is_bridge.(id) <- true) (Bridge.bridges g);
      let cands =
        Graph.fold_edges
          (fun acc e ->
            if is_bridge.(e.Graph.id) then acc else (e.Graph.u, e.Graph.v) :: acc)
          [] g
      in
      match cands with
      | [] -> false
      | _ :: _ ->
          let u, v = Mincut_util.Rng.choose rng (Array.of_list cands) in
          emit (Delta.Remove_edge { u; v })
  in
  let try_merge () =
    (* contracting a channel keeps the graph connected and n >= 4 *)
    if Handle.n h <= 4 then false
    else
      match pick_channel () with
      | None -> false
      | Some (u, v, _) -> emit (Delta.Merge_nodes { u; v })
  in
  let try_split () =
    let n = Handle.n h in
    let g = Handle.current h in
    let rec attempt k =
      if k = 0 then false
      else
        let v = Mincut_util.Rng.int rng n in
        if Graph.degree g v = 0 then attempt (k - 1)
        else
          let moved = ref [] in
          Graph.iter_adj g v (fun x _ ->
              if Mincut_util.Rng.bool rng then moved := x :: !moved);
          let moved = List.rev !moved in
          emit
            (Delta.Split_node
               { v; w = 1 + Mincut_util.Rng.int rng wmax; moved })
    in
    attempt 8
  in
  let step () =
    (* cumulative thresholds of the 35 / 8 / 49 / 4 / 4 percent mix *)
    let r = Mincut_util.Rng.int rng 100 in
    let ok =
      if r < 35 then try_add ()
      else if r < 43 then try_remove ()
      else if r < 92 then try_reweight ()
      else if r < 96 then try_merge ()
      else try_split ()
    in
    (* a step whose drawn kind is impossible right now degrades to an
       add, so churn keeps flowing on small or thinned-out graphs *)
    if not ok then ignore (try_add ())
  in
  for _ = 1 to ops do
    step ()
  done;
  List.rev !out
