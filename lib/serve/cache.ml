module Lockcheck = Mincut_parallel.Lockcheck
module Lru = Mincut_util.Lru

(* Every public operation holds the cache's rank-20 checked mutex
   around the lock-free [Lru]. *)
type 'v t = {
  lru : (string, 'v) Lru.t;
  cost_of : 'v -> int;
  max_entries : int;
  max_cost : int;
  lock : Lockcheck.t;
}

let create ?(max_entries = 4096) ?(max_cost = 16_777_216) ~cost () =
  if max_entries <= 0 then invalid_arg "Cache.create: max_entries must be positive";
  if max_cost <= 0 then invalid_arg "Cache.create: max_cost must be positive";
  {
    lru = Lru.create ();
    cost_of = cost;
    max_entries;
    max_cost;
    lock = Lockcheck.create ~name:"serve.cache" ~order:20 ();
  }

let find t k = Lockcheck.with_lock t.lock (fun () -> Lru.find t.lru k)

(* [Lru.trim] keeps the last entry, so a lone over-cost result still
   caches (and goes at the next insert) *)
let add t k v =
  Lockcheck.with_lock t.lock (fun () ->
      Lru.add t.lru k v ~cost:(t.cost_of v);
      ignore
        (Lru.trim t.lru ~over:(fun () ->
             Lru.length t.lru > t.max_entries || Lru.total_cost t.lru > t.max_cost)))

let mem t k = Lockcheck.with_lock t.lock (fun () -> Lru.mem t.lru k)
let length t = Lockcheck.with_lock t.lock (fun () -> Lru.length t.lru)
let total_cost t = Lockcheck.with_lock t.lock (fun () -> Lru.total_cost t.lru)
let evictions t = Lockcheck.with_lock t.lock (fun () -> Lru.evictions t.lru)
let keys_mru_first t = Lockcheck.with_lock t.lock (fun () -> Lru.keys_mru_first t.lru)
