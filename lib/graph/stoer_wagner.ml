type result = { value : int; side : Mincut_util.Bitset.t }

(* Classic Stoer–Wagner on a dense weight matrix.  Vertices are merged
   into "supernodes"; [members.(i)] tracks which original nodes a live
   supernode stands for, so the best cut-of-the-phase can be reported as
   a node set of the original graph. *)
let run g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Stoer_wagner.run: need n >= 2";
  let w = Array.make_matrix n n 0 in
  Graph.iter_edges
    (fun e ->
      w.(e.u).(e.v) <- w.(e.u).(e.v) + e.w;
      w.(e.v).(e.u) <- w.(e.v).(e.u) + e.w)
    g;
  let members = Array.init n (fun i -> [ i ]) in
  let alive = Array.make n true in
  let best_value = ref max_int in
  let best_members = ref [] in
  let n_alive = ref n in
  while !n_alive > 1 do
    (* maximum-adjacency order over live supernodes *)
    let added = Array.make n false in
    let conn = Array.make n 0 in
    let prev = ref (-1) in
    let last = ref (-1) in
    for _ = 1 to !n_alive do
      (* pick the unadded live node with maximum connectivity, the
         lowest id on a tie; connectivities are never negative *)
      let pick = ref (-1) and most = ref (-1) in
      for v = 0 to n - 1 do
        if alive.(v) && (not added.(v)) && conn.(v) > !most then begin
          pick := v;
          most := conn.(v)
        end
      done;
      let v = !pick in
      added.(v) <- true;
      prev := !last;
      last := v;
      let wv = w.(v) in
      for u = 0 to n - 1 do
        if alive.(u) && not added.(u) then conn.(u) <- conn.(u) + wv.(u)
      done
    done;
    (* cut of the phase: the last node alone *)
    if conn.(!last) < !best_value then begin
      best_value := conn.(!last);
      best_members := members.(!last)
    end;
    (* merge last into prev *)
    let s = !prev and t = !last in
    alive.(t) <- false;
    decr n_alive;
    members.(s) <- members.(t) @ members.(s);
    let ws = w.(s) and wt = w.(t) in
    for v = 0 to n - 1 do
      if alive.(v) && v <> s then begin
        ws.(v) <- ws.(v) + wt.(v);
        w.(v).(s) <- ws.(v)
      end
    done
  done;
  if !best_value = max_int then invalid_arg "Stoer_wagner.run: empty graph";
  let side = Mincut_util.Bitset.create n in
  List.iter (Mincut_util.Bitset.add side) !best_members;
  (* A disconnected graph yields value 0 with a valid side, which is the
     correct answer; but we promise connectivity to keep semantics clear. *)
  if !best_value > 0 && not (Bfs.is_connected g) then
    invalid_arg "Stoer_wagner.run: disconnected graph";
  { value = !best_value; side }

let min_cut_value g =
  if not (Bfs.is_connected g) then 0 else (run g).value
