module Graph = Mincut_graph.Graph
module Handle = Mincut_graph.Handle
module Delta = Mincut_graph.Delta
module Union_find = Mincut_graph.Union_find
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Bitset = Mincut_util.Bitset

type mode = Reused | Cert_solved | Resolved

let mode_name = function
  | Reused -> "reused"
  | Cert_solved -> "cert"
  | Resolved -> "resolved"

type answer = { lambda : int; mode : mode }

type stats = {
  mutable deltas_applied : int;
  mutable reused : int;
  mutable cert_solves : int;
  mutable full_resolves : int;
}

let fallback_rate s =
  if s.deltas_applied = 0 then 0.0
  else float_of_int s.full_resolves /. float_of_int s.deltas_applied

(* channel key packing, same scheme as Handle's (u < v < 2^31) *)
let ck u v = (u lsl 31) lor v
let ck_u k = k lsr 31
let ck_v k = k land 0x7FFF_FFFF

type t = {
  handle : Handle.t;
  stats : stats;
  mutable lam : int;
  mutable side : Bitset.t;
  mutable side_ok : bool;  (* (lam, side) proven for the live version *)
  mutable gen : int;  (* bumps when side_ok transitions to false *)
  mutable cert_ok : bool;
  mutable k : int;
  mutable forests : Union_find.t array;
  cert : (int, int) Hashtbl.t;  (* channel key -> certified weight *)
  mutable lambda_cap : int;  (* upper bound on λ(live); max_int = none *)
}

let handle t = t.handle
let graph t = Handle.current t.handle
let stats t = t.stats
let generation t = t.gen
let cert_k t = t.k
let side t = t.side

let lambda t =
  (* apply is eager, so the live version is always resolved *)
  assert t.side_ok;
  t.lam

let invalidate_side t =
  if t.side_ok then begin
    t.side_ok <- false;
    t.gen <- t.gen + 1
  end

(* greedy jungle placement: each unit goes into the lowest forest where
   the endpoints are still disconnected; units that fit nowhere are
   dropped (their connectivity is already certified k times over) *)
let place_units t u v count =
  let placed = ref 0 in
  let f = ref 0 in
  (try
     for _ = 1 to count do
       while !f < t.k && Union_find.same t.forests.(!f) u v do
         incr f
       done;
       if !f >= t.k then raise Exit;
       ignore (Union_find.union t.forests.(!f) u v);
       incr placed;
       incr f
     done
   with Exit -> ());
  if !placed > 0 then begin
    let key = ck (min u v) (max u v) in
    let prev =
      match Hashtbl.find_opt t.cert key with Some c -> c | None -> 0
    in
    Hashtbl.replace t.cert key (prev + !placed)
  end

let cert_graph t =
  let n = Handle.n t.handle in
  let arr = Array.make (Hashtbl.length t.cert) (0, 0, 0) in
  let i = ref 0 in
  Hashtbl.iter
    (fun key w ->
      arr.(!i) <- (ck_u key, ck_v key, w);
      incr i)
    t.cert;
  Array.sort
    (fun (u1, v1, _) (u2, v2, _) ->
      match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c)
    arr;
  Graph.of_array ~n arr

let min_weighted_degree g =
  let best = ref max_int in
  for v = 0 to Graph.n g - 1 do
    best := min !best (Graph.weighted_degree g v)
  done;
  !best

(* the disconnected case: λ = 0 and forest 0 (a maximal spanning forest
   of the live graph) knows the components — take node 0's *)
let adopt_disconnected t n =
  let f0 = t.forests.(0) in
  let r0 = Union_find.find f0 0 in
  let s = Bitset.create n in
  for v = 0 to n - 1 do
    if Union_find.find f0 v = r0 then Bitset.add s v
  done;
  t.lam <- 0;
  t.side <- s;
  t.side_ok <- true;
  t.lambda_cap <- 0

let adopt_sw t (r : Stoer_wagner.result) =
  t.lam <- r.Stoer_wagner.value;
  t.side <- r.Stoer_wagner.side;
  t.side_ok <- true;
  t.lambda_cap <- r.Stoer_wagner.value

(* full re-certification of the live graph: greedy jungle with
   k ≈ 2λ + 2 (doubling on saturation, capped at min-wdeg + 1 where
   saturation is impossible), then Stoer–Wagner over the certificate *)
let rebuild t =
  let g = Handle.current t.handle in
  let n = Graph.n g in
  let cap = min_weighted_degree g + 1 in
  let seed_k =
    if t.lambda_cap < max_int then (2 * t.lambda_cap) + 2 else cap
  in
  let rec attempt k =
    let k = max 1 (min k cap) in
    t.k <- k;
    t.forests <- Array.init k (fun _ -> Union_find.create n);
    Hashtbl.reset t.cert;
    Graph.iter_edges
      (fun e ->
        place_units t e.Graph.u e.Graph.v (min e.Graph.w k))
      g;
    if Union_find.count t.forests.(0) > 1 then adopt_disconnected t n
    else
      let r = Stoer_wagner.run (cert_graph t) in
      if r.Stoer_wagner.value >= k && k < cap then attempt (2 * k)
      else adopt_sw t r
  in
  attempt (max 2 seed_k);
  t.cert_ok <- true

(* tier 2: the jungle is a valid certificate of the live graph (inserts
   only), but the anchored side is stale — exact λ by Stoer–Wagner over
   the sparse certificate.  A saturated answer (≥ k) means λ outgrew
   the certificate: treat as an invalidation and rebuild. *)
let cert_solve t =
  let n = Handle.n t.handle in
  if Union_find.count t.forests.(0) > 1 then begin
    adopt_disconnected t n;
    t.stats.cert_solves <- t.stats.cert_solves + 1;
    { lambda = t.lam; mode = Cert_solved }
  end
  else
    let r = Stoer_wagner.run (cert_graph t) in
    if r.Stoer_wagner.value >= t.k && t.k < min_weighted_degree (Handle.current t.handle) + 1
    then begin
      t.stats.full_resolves <- t.stats.full_resolves + 1;
      rebuild t;
      { lambda = t.lam; mode = Resolved }
    end
    else begin
      adopt_sw t r;
      t.stats.cert_solves <- t.stats.cert_solves + 1;
      { lambda = t.lam; mode = Cert_solved }
    end

let create g =
  let t =
    {
      handle = Handle.of_graph g;
      stats =
        {
          deltas_applied = 0;
          reused = 0;
          cert_solves = 0;
          full_resolves = 0;
        };
      lam = 0;
      side = Bitset.create (Graph.n g);
      side_ok = false;
      gen = 0;
      cert_ok = false;
      k = 0;
      forests = [||];
      cert = Hashtbl.create 64;
      lambda_cap = max_int;
    }
  in
  rebuild t;
  t

let compact t = ignore (Handle.compact t.handle)

let apply t op =
  match Handle.apply t.handle op with
  | Error _ as e -> e
  | Ok outcome ->
      t.stats.deltas_applied <- t.stats.deltas_applied + 1;
      let decreased =
        List.exists
          (fun (c : Handle.change) -> c.Handle.after < c.Handle.before)
          outcome.Handle.changes
      in
      if outcome.Handle.renumbered || decreased then begin
        (* removals, weight decreases, merges and splits invalidate the
           jungle; λ stays bounded above except for merges *)
        invalidate_side t;
        t.cert_ok <- false;
        t.lambda_cap <-
          (match op with
          | Delta.Merge_nodes _ -> max_int
          | Delta.Remove_edge _ | Delta.Reweight _ | Delta.Split_node _
          | Delta.Add_edge _ ->
              t.lam)
      end
      else begin
        (* pure weight increases: the jungle absorbs them (certificates
           are closed under insertion) ... *)
        if t.cert_ok then
          List.iter
            (fun (c : Handle.change) ->
              place_units t c.Handle.cu c.Handle.cv
                (min (c.Handle.after - c.Handle.before) t.k))
            outcome.Handle.changes;
        (* ... and λ/side carry over unless an increase crosses the
           anchored side *)
        let crossing =
          List.exists
            (fun (c : Handle.change) ->
              Bitset.mem t.side c.Handle.cu <> Bitset.mem t.side c.Handle.cv)
            outcome.Handle.changes
        in
        if crossing then begin
          let added =
            List.fold_left
              (fun acc (c : Handle.change) ->
                acc + (c.Handle.after - c.Handle.before))
              0 outcome.Handle.changes
          in
          let cap = if t.lambda_cap = max_int then max_int else t.lambda_cap + added in
          invalidate_side t;
          t.lambda_cap <- cap
        end
      end;
      let answer =
        if t.side_ok then begin
          t.stats.reused <- t.stats.reused + 1;
          { lambda = t.lam; mode = Reused }
        end
        else if t.cert_ok then cert_solve t
        else begin
          t.stats.full_resolves <- t.stats.full_resolves + 1;
          rebuild t;
          { lambda = t.lam; mode = Resolved }
        end
      in
      Ok (outcome, answer)
