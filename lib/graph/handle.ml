module Hash = Mincut_util.Hash

type change = { cu : int; cv : int; before : int; after : int }
type outcome = { version : int; changes : change list; renumbered : bool }

(* channel key: endpoints packed into one int (u < v < 2^31) *)
let ck u v = (u lsl 31) lor v
let ck_u k = k lsr 31
let ck_v k = k land 0x7FFF_FFFF

type t = {
  channels : (int, int) Hashtbl.t;
  mutable version : int;
  mutable n : int;
  mutable nchan : int;
  mutable wsum : int;
  mutable acc : int64;  (* sum over channels of [contribution] *)
  mutable memo : Graph.t option;
}

let contribution u v w =
  let h = Hash.create () in
  Hash.add_int h u;
  Hash.add_int h v;
  Hash.add_int h w;
  Hash.value h

let digest_of ~n ~nchan ~wsum ~acc =
  let h = Hash.create () in
  Hash.add_int h n;
  Hash.add_int h nchan;
  Hash.add_int h wsum;
  Hash.add_int64 h acc;
  Hash.value h

let digest t = digest_of ~n:t.n ~nchan:t.nchan ~wsum:t.wsum ~acc:t.acc

(* the one mutation primitive: set channel {u,v} (u < v) to [w]
   (0 = remove), keeping the channel count, weight sum and rolling
   digest accumulator in sync *)
let set_channel t u v w =
  let key = ck u v in
  let before =
    match Hashtbl.find_opt t.channels key with Some x -> x | None -> 0
  in
  if before <> 0 then begin
    t.acc <- Int64.sub t.acc (contribution u v before);
    t.nchan <- t.nchan - 1;
    t.wsum <- t.wsum - before;
    Hashtbl.remove t.channels key
  end;
  if w <> 0 then begin
    t.acc <- Int64.add t.acc (contribution u v w);
    t.nchan <- t.nchan + 1;
    t.wsum <- t.wsum + w;
    Hashtbl.replace t.channels key w
  end;
  { cu = u; cv = v; before; after = w }

let channel_weight t a b =
  let u = Int.min a b and v = Int.max a b in
  match Hashtbl.find_opt t.channels (ck u v) with Some w -> w | None -> 0

let channel_array t =
  let arr = Array.make t.nchan (0, 0, 0) in
  let i = ref 0 in
  Hashtbl.iter
    (fun key w ->
      arr.(!i) <- (ck_u key, ck_v key, w);
      incr i)
    t.channels;
  (* canonical order: channels are unique per (u, v), so endpoint order
     is a total order *)
  Array.sort
    (fun (u1, v1, _) (u2, v2, _) ->
      match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c)
    arr;
  arr

let materialize t = Graph.of_array ~n:t.n (channel_array t)

let current t =
  match t.memo with
  | Some g -> g
  | None ->
      let g = materialize t in
      t.memo <- Some g;
      g

let of_graph g =
  let t =
    {
      channels = Hashtbl.create (Int.max 16 (Graph.m g));
      version = 0;
      n = Graph.n g;
      nchan = 0;
      wsum = 0;
      acc = 0L;
      memo = None;
    }
  in
  Graph.iter_edges
    (fun e ->
      let w0 = channel_weight t e.Graph.u e.Graph.v in
      ignore (set_channel t e.Graph.u e.Graph.v (w0 + e.Graph.w)))
    g;
  t

let version t = t.version
let n t = t.n
let channels t = t.nchan
let total_weight t = t.wsum

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let check_node t name x =
  if x < 0 || x >= t.n then
    Error (Printf.sprintf "%s=%d out of range (n=%d)" name x t.n)
  else Ok ()

let check_pair t u v =
  let* () = check_node t "u" u in
  let* () = check_node t "v" v in
  if u = v then Error (Printf.sprintf "self loop %d-%d" u v) else Ok ()

(* all channels incident to node [x], as (other endpoint, weight) *)
let incident t x =
  Hashtbl.fold
    (fun key w acc ->
      let u = ck_u key and v = ck_v key in
      if u = x then (v, w) :: acc else if v = x then (u, w) :: acc else acc)
    t.channels []

(* move every channel of [from] onto [onto] (merging weights); [from]
   must have none left afterwards.  Used by merge (onto <> from's
   neighbors handled by caller) and by the renumbering step. *)
let move_node_channels t ~from ~onto =
  List.iter
    (fun (x, w) ->
      ignore (set_channel t (Int.min from x) (Int.max from x) 0);
      if x <> onto then
        let prev = channel_weight t onto x in
        ignore (set_channel t (Int.min onto x) (Int.max onto x) (prev + w)))
    (incident t from)

let apply_checked t op =
  match op with
  | Delta.Add_edge { u; v; w } ->
      let* () = check_pair t u v in
      if w < 1 then Error (Printf.sprintf "add weight %d < 1" w)
      else
        let u, v = (Int.min u v, Int.max u v) in
        Ok ([ set_channel t u v (channel_weight t u v + w) ], false)
  | Delta.Remove_edge { u; v } ->
      let* () = check_pair t u v in
      let u, v = (Int.min u v, Int.max u v) in
      if channel_weight t u v = 0 then
        Error (Printf.sprintf "no channel %d-%d to remove" u v)
      else Ok ([ set_channel t u v 0 ], false)
  | Delta.Reweight { u; v; w } ->
      let* () = check_pair t u v in
      if w < 1 then
        Error (Printf.sprintf "reweight to %d < 1 (use remove)" w)
      else
        let u, v = (Int.min u v, Int.max u v) in
        let before = channel_weight t u v in
        if before = 0 then
          Error (Printf.sprintf "no channel %d-%d to reweight" u v)
        else if before = w then Ok ([], false)
        else Ok ([ set_channel t u v w ], false)
  | Delta.Merge_nodes { u; v } ->
      let* () = check_pair t u v in
      if t.n <= 2 then Error "merge would leave fewer than 2 nodes"
      else begin
        (* contract v into u: v's channels re-attach to u (the {u,v}
           channel becomes a self loop and is dropped by the guard in
           move_node_channels), then the last node fills v's slot *)
        move_node_channels t ~from:v ~onto:u;
        let last = t.n - 1 in
        if v <> last then move_node_channels t ~from:last ~onto:v;
        t.n <- t.n - 1;
        Ok ([], true)
      end
  | Delta.Split_node { v; w; moved } ->
      let* () = check_node t "v" v in
      if w < 1 then Error (Printf.sprintf "split bridge weight %d < 1" w)
      else
        let rec dup = function
          | [] -> false
          | x :: rest -> List.exists (Int.equal x) rest || dup rest
        in
        if dup moved then Error "split: duplicate node in moved list"
        else
          let* () =
            List.fold_left
              (fun acc x ->
                let* () = acc in
                let* () = check_node t "moved" x in
                if x = v then Error "split: moved list contains v itself"
                else if channel_weight t v x = 0 then
                  Error (Printf.sprintf "split: no channel %d-%d to move" v x)
                else Ok ())
              (Ok ()) moved
          in
          let fresh = t.n in
          t.n <- t.n + 1;
          List.iter
            (fun x ->
              let wx = channel_weight t v x in
              ignore (set_channel t (Int.min v x) (Int.max v x) 0);
              ignore (set_channel t (Int.min x fresh) (Int.max x fresh) wx))
            moved;
          ignore (set_channel t (Int.min v fresh) (Int.max v fresh) w);
          Ok ([], true)

let apply t op =
  match apply_checked t op with
  | Error _ as e -> e
  | Ok ([], false) -> Ok { version = t.version; changes = []; renumbered = false }
  | Ok (changes, renumbered) ->
      t.version <- t.version + 1;
      t.memo <- None;
      Ok { version = t.version; changes; renumbered }
