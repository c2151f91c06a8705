module Bitset = Mincut_util.Bitset

type t = { value : int; sides : Bitset.t list }

let canonical _g side =
  let s = Bitset.copy side in
  if Bitset.mem s 0 then Bitset.complement_inplace s;
  s

let exhaustive g =
  let n = Graph.n g in
  if n < 2 || n > 24 then invalid_arg "All_min_cuts.exhaustive: need 2 <= n <= 24";
  if not (Bfs.is_connected g) then invalid_arg "All_min_cuts.exhaustive: disconnected";
  let best = ref max_int in
  let sides = ref [] in
  let masks = 1 lsl (n - 1) in
  for mask = 1 to masks - 1 do
    let in_cut v = v > 0 && (mask lsr (v - 1)) land 1 = 1 in
    let value = Graph.cut_value g ~in_cut in
    if value < !best then begin
      best := value;
      sides := [ mask ]
    end
    else if value = !best then sides := mask :: !sides
  done;
  let to_bitset mask =
    let s = Bitset.create n in
    for v = 1 to n - 1 do
      if (mask lsr (v - 1)) land 1 = 1 then Bitset.add s v
    done;
    s
  in
  { value = !best; sides = List.rev_map to_bitset !sides }

let randomized ~rng ?trials g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "All_min_cuts.randomized: need n >= 2";
  if not (Bfs.is_connected g) then invalid_arg "All_min_cuts.randomized: disconnected";
  let trials =
    match trials with
    | Some t -> t
    | None ->
        let l = log (float_of_int n) in
        max 20 (int_of_float (30.0 *. l *. l))
  in
  let best = ref max_int in
  let seen = Hashtbl.create 16 in
  for _ = 1 to trials do
    let r = Karger.karger_stein ~rng ~trials:1 g in
    if r.Karger.value < !best then begin
      best := r.Karger.value;
      Hashtbl.reset seen
    end;
    if r.Karger.value = !best then begin
      let side = canonical g r.Karger.side in
      let key = Bitset.to_list side in
      if not (Hashtbl.mem seen key) then Hashtbl.replace seen key side
    end
  done;
  { value = !best; sides = Hashtbl.fold (fun _ s acc -> s :: acc) seen [] }
