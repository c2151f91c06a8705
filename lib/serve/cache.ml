module Lockcheck = Mincut_parallel.Lockcheck

(* Hash table of intrusive doubly-linked nodes; [head] is most recently
   used, [tail] least.  The sentinel-free list is managed by hand; every
   resident node is reachable from the table, so no cycles leak.

   Thread safety: every public operation holds the cache's rank-20
   checked mutex; the list/table manipulation helpers below are only
   reachable from inside it. *)

type 'v node = {
  key : string;
  mutable value : 'v;
  mutable cost : int;
  mutable prev : 'v node option;
  mutable next : 'v node option;
}

type 'v t = {
  table : (string, 'v node) Hashtbl.t;
  cost_of : 'v -> int;
  max_entries : int;
  max_cost : int;
  lock : Lockcheck.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable total_cost : int;
  mutable evictions : int;
}

let create ?(max_entries = 4096) ?(max_cost = 16_777_216) ~cost () =
  if max_entries <= 0 then invalid_arg "Cache.create: max_entries must be positive";
  if max_cost <= 0 then invalid_arg "Cache.create: max_cost must be positive";
  {
    table = Hashtbl.create 64;
    cost_of = cost;
    max_entries;
    max_cost;
    lock = Lockcheck.create ~name:"serve.cache" ~order:20 ();
    head = None;
    tail = None;
    total_cost = 0;
    evictions = 0;
  }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let touch t node =
  match t.head with
  | Some h when h == node -> ()
  | _ ->
      unlink t node;
      push_front t node

let find t k =
  Lockcheck.with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some node ->
          touch t node;
          Some node.value
      | None -> None)

let evict_one t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      t.total_cost <- t.total_cost - node.cost;
      t.evictions <- t.evictions + 1

(* evict until both bounds hold; a lone over-cost entry is kept (and
   evicted at the next insert) so a single huge result still caches *)
let rec enforce_bounds t =
  if
    Hashtbl.length t.table > t.max_entries
    || (t.total_cost > t.max_cost && Hashtbl.length t.table > 1)
  then begin
    evict_one t;
    enforce_bounds t
  end

let add t k v =
  Lockcheck.with_lock t.lock (fun () ->
      let cost = t.cost_of v in
      (match Hashtbl.find_opt t.table k with
      | Some node ->
          t.total_cost <- t.total_cost - node.cost + cost;
          node.value <- v;
          node.cost <- cost;
          touch t node
      | None ->
          let node = { key = k; value = v; cost; prev = None; next = None } in
          Hashtbl.add t.table k node;
          push_front t node;
          t.total_cost <- t.total_cost + cost);
      enforce_bounds t)

let mem t k = Lockcheck.with_lock t.lock (fun () -> Hashtbl.mem t.table k)
let length t = Lockcheck.with_lock t.lock (fun () -> Hashtbl.length t.table)
let total_cost t = Lockcheck.with_lock t.lock (fun () -> t.total_cost)
let evictions t = Lockcheck.with_lock t.lock (fun () -> t.evictions)

let keys_mru_first t =
  Lockcheck.with_lock t.lock (fun () ->
      let rec walk acc = function
        | None -> List.rev acc
        | Some node -> walk (node.key :: acc) node.next
      in
      walk [] t.head)
