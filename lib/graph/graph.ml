type edge = { id : int; u : int; v : int; w : int }

type t = {
  n : int;
  edges : edge array;
  wdeg : int array;  (* cached weighted degrees *)
  (* CSR adjacency, the only one: node [v]'s directed slots are
     [csr_off.(v) .. csr_off.(v+1) - 1]; slot [s] is the directed edge
     [v -> csr_nbr.(s)] realized by undirected edge [csr_eid.(s)].
     Slots are sorted by (neighbor, edge id) within each node, so the
     first slot of a channel is its minimum-id parallel edge.  The
     simulator indexes per-directed-edge counters by slot. *)
  csr_off : int array;
  csr_nbr : int array;
  csr_eid : int array;
}

let validate ~n (u, v, w) =
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Graph.create: endpoint out of range (%d,%d), n=%d" u v n);
  if u = v then invalid_arg "Graph.create: self loop";
  if w <= 0 then invalid_arg "Graph.create: non-positive weight"

let max_nodes = 1 lsl 22

(* Core constructor over already-normalized edge records (u < v, ids
   [0 .. len-1]).  The CSR comes from counting passes, no sort: [inc]
   lists each node's incident edge ids in id order; walking the nodes u
   in ascending order and appending (u, id) to the other endpoint's row
   then leaves every row sorted by (neighbor, edge id). *)
let build ~n edges =
  let csr_off = Array.make (n + 1) 0 in
  let wdeg = Array.make n 0 in
  Array.iter
    (fun e ->
      csr_off.(e.u + 1) <- csr_off.(e.u + 1) + 1;
      csr_off.(e.v + 1) <- csr_off.(e.v + 1) + 1;
      wdeg.(e.u) <- wdeg.(e.u) + e.w;
      wdeg.(e.v) <- wdeg.(e.v) + e.w)
    edges;
  for v = 0 to n - 1 do
    csr_off.(v + 1) <- csr_off.(v + 1) + csr_off.(v)
  done;
  let slots = csr_off.(n) in
  let fill = Array.sub csr_off 0 n in
  (* the next free slot of [row] *)
  let next row =
    let s = fill.(row) in
    fill.(row) <- s + 1;
    s
  in
  let inc = Array.make slots 0 in
  Array.iter
    (fun e ->
      inc.(next e.u) <- e.id;
      inc.(next e.v) <- e.id)
    edges;
  Array.blit csr_off 0 fill 0 n;
  let csr_nbr = Array.make slots 0 in
  let csr_eid = Array.make slots 0 in
  for u = 0 to n - 1 do
    for i = csr_off.(u) to csr_off.(u + 1) - 1 do
      let e = edges.(inc.(i)) in
      let s = next (if e.u = u then e.v else e.u) in
      csr_nbr.(s) <- u;
      csr_eid.(s) <- e.id
    done
  done;
  { n; edges; wdeg; csr_off; csr_nbr; csr_eid }

let of_array ~n triples =
  Array.iter (validate ~n) triples;
  let edges =
    Array.mapi
      (fun id (u, v, w) -> if u < v then { id; u; v; w } else { id; u = v; v = u; w })
      triples
  in
  build ~n edges

let create ~n triples = of_array ~n (Array.of_list triples)

let n g = g.n

let m g = Array.length g.edges

let edge g id =
  if id < 0 || id >= m g then invalid_arg "Graph.edge: bad id";
  g.edges.(id)

let edges g = g.edges

let weight g id = (edge g id).w

let endpoints g id =
  let e = edge g id in
  (e.u, e.v)

let other_endpoint g id x =
  let e = edge g id in
  if e.u = x then e.v
  else if e.v = x then e.u
  else invalid_arg "Graph.other_endpoint: not an endpoint"

let iter_adj g v f =
  for s = g.csr_off.(v) to g.csr_off.(v + 1) - 1 do
    f g.csr_nbr.(s) g.csr_eid.(s)
  done

let degree g v = g.csr_off.(v + 1) - g.csr_off.(v)

let weighted_degree g v = g.wdeg.(v)

let min_degree_node g =
  let best = ref 0 in
  for v = 1 to g.n - 1 do
    if g.wdeg.(v) < g.wdeg.(!best) then best := v
  done;
  !best

let csr_offsets g = g.csr_off

let csr_neighbors g = g.csr_nbr

let csr_edge_ids g = g.csr_eid

let total_weight g = Array.fold_left (fun acc e -> acc + e.w) 0 g.edges

let iter_edges f g = Array.iter f g.edges

let fold_edges f init g = Array.fold_left f init g.edges

(* Filtered/reweighted copies renumber ids with flat array passes — no
   list round-trip, no re-validation (the source edges are already
   normalized).  [f] runs exactly once per edge, in id order: callers
   thread RNG draws through it (skeleton sampling), so evaluation count
   and order are part of the contract. *)
let filter_map_edges g ~f =
  let weights = Array.map f g.edges in
  let count = ref 0 in
  Array.iter (fun w -> if w > 0 then incr count) weights;
  let out = Array.make !count { id = 0; u = 0; v = 0; w = 0 } in
  let i = ref 0 in
  Array.iteri
    (fun id w ->
      if w > 0 then begin
        let e = g.edges.(id) in
        out.(!i) <- { id = !i; u = e.u; v = e.v; w };
        incr i
      end)
    weights;
  build ~n:g.n out

let sub_by_edges g ~keep = filter_map_edges g ~f:(fun e -> if keep e then e.w else 0)

let reweight g ~f = filter_map_edges g ~f

let cut_value g ~in_cut =
  Array.fold_left
    (fun acc e -> if in_cut e.u <> in_cut e.v then acc + e.w else acc)
    0 g.edges

let cut_of_bitset g side = cut_value g ~in_cut:(Mincut_util.Bitset.mem side)

let compare_triple (a1, a2, a3) (b1, b2, b3) =
  match Int.compare a1 b1 with
  | 0 -> ( match Int.compare a2 b2 with 0 -> Int.compare a3 b3 | c -> c)
  | c -> c

let equal_triple (a1, a2, a3) (b1, b2, b3) =
  Int.equal a1 b1 && Int.equal a2 b2 && Int.equal a3 b3

let canon_edges g =
  let l = Array.to_list (Array.map (fun e -> (e.u, e.v, e.w)) g.edges) in
  List.sort compare_triple l

let equal_structure a b =
  a.n = b.n && List.equal equal_triple (canon_edges a) (canon_edges b)
