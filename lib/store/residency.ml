module Lru = Mincut_util.Lru

type instruments = {
  on_hit : unit -> unit;
  on_miss : unit -> unit;
  on_eviction : unit -> unit;
  on_bytes_resident : int -> unit;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  resident : int;
  bytes_resident : int;
  budget : int;
}

(* chunks keyed by id, each costing its bytes *)
type t = {
  budget : int;
  load : int -> Chunk.t;
  instruments : instruments option;
  lru : (int, Chunk.t) Lru.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?instruments ~budget ~load () =
  if budget <= 0 then invalid_arg "Residency.create: budget must be positive";
  { budget; load; instruments; lru = Lru.create (); hits = 0; misses = 0 }

let note t f = match t.instruments with Some i -> f i | None -> ()

let evicted t k =
  for _ = 1 to k do
    note t (fun i -> i.on_eviction ())
  done

(* The chunk just loaded is the most recent entry, so [Lru.trim], which
   keeps the last entry left, never evicts the chunk being handed out. *)
let get t cid =
  let chunk =
    match Lru.find t.lru cid with
    | Some chunk ->
        t.hits <- t.hits + 1;
        note t (fun i -> i.on_hit ());
        chunk
    | None ->
        t.misses <- t.misses + 1;
        note t (fun i -> i.on_miss ());
        let chunk = t.load cid in
        Lru.add t.lru cid chunk ~cost:(Chunk.bytes chunk);
        evicted t (Lru.trim t.lru ~over:(fun () -> Lru.total_cost t.lru > t.budget));
        chunk
  in
  note t (fun i -> i.on_bytes_resident (Lru.total_cost t.lru));
  chunk

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = Lru.evictions t.lru;
    resident = Lru.length t.lru;
    bytes_resident = Lru.total_cost t.lru;
    budget = t.budget;
  }

let drop_all t =
  evicted t (Lru.clear t.lru);
  note t (fun i -> i.on_bytes_resident (Lru.total_cost t.lru))
