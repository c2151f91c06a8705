(* Hash table of intrusive doubly-linked nodes; [head] is most recently
   used, [tail] the eviction candidate.  Every resident node is
   reachable from the table, and an evicted node is unlinked from both
   neighbours, so no cycle outlives its entry. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable cost : int;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable total_cost : int;
  mutable evictions : int;
}

let create () =
  { table = Hashtbl.create 64; head = None; tail = None; total_cost = 0; evictions = 0 }

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some nx -> nx.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let touch t node =
  match t.head with
  | Some h when h == node -> ()
  | Some _ | None ->
      unlink t node;
      push_front t node

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some node ->
      touch t node;
      Some node.value
  | None -> None

let add t k v ~cost =
  match Hashtbl.find_opt t.table k with
  | Some node ->
      t.total_cost <- t.total_cost - node.cost + cost;
      node.value <- v;
      node.cost <- cost;
      touch t node
  | None ->
      let node = { key = k; value = v; cost; prev = None; next = None } in
      Hashtbl.add t.table k node;
      push_front t node;
      t.total_cost <- t.total_cost + cost

(* evict the tail; false when the table is empty *)
let evict_lru t =
  match t.tail with
  | None -> false
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      t.total_cost <- t.total_cost - node.cost;
      t.evictions <- t.evictions + 1;
      true

let trim t ~over =
  let rec go k = if Hashtbl.length t.table > 1 && over () && evict_lru t then go (k + 1) else k in
  go 0

let clear t =
  let rec go k = if evict_lru t then go (k + 1) else k in
  go 0

let mem t k = Hashtbl.mem t.table k
let length t = Hashtbl.length t.table
let total_cost t = t.total_cost
let evictions t = t.evictions

let keys_mru_first t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk (node.key :: acc) node.next
  in
  walk [] t.head
