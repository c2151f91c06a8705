type t = {
  graph_n : int;
  root : int;
  parent : int array;
  children : int array array;
  depth : int array;
  preorder : int array;
  tin : int array;
  tout : int array;
}

module Scratch = Mincut_util.Scratch

(* The counts, fill cursors and DFS stack are per-call temporaries, so
   they come from the domain's [Scratch]; every array of the result is
   allocated. *)
let of_parents ~graph_n ~root ~parent =
  if Array.length parent <> graph_n then
    invalid_arg "Tree.of_parents: array length mismatch";
  if root < 0 || root >= graph_n || parent.(root) <> -1 then
    invalid_arg "Tree.of_parents: bad root";
  Scratch.frame @@ fun sc ->
  let child_count = Scratch.filled sc graph_n 0 in
  for v = 0 to graph_n - 1 do
    if v <> root then begin
      let p = parent.(v) in
      if p < 0 || p >= graph_n then invalid_arg "Tree.of_parents: bad parent";
      child_count.(p) <- child_count.(p) + 1
    end
  done;
  let children = Array.init graph_n (fun v -> Array.make child_count.(v) 0) in
  let fill = Scratch.filled sc graph_n 0 in
  for v = 0 to graph_n - 1 do
    if v <> root then begin
      let p = parent.(v) in
      children.(p).(fill.(p)) <- v;
      fill.(p) <- fill.(p) + 1
    end
  done;
  (* Iterative preorder DFS on an int-array stack, with each node's next
     child index kept per node; also detects cycles / disconnection
     because a valid tree visits exactly graph_n nodes. *)
  let depth = Array.make graph_n 0 in
  let preorder = Array.make graph_n (-1) in
  let tin = Array.make graph_n (-1) in
  let tout = Array.make graph_n (-1) in
  let next_child = Scratch.filled sc graph_n 0 in
  let stack = Scratch.ints sc graph_n in
  let top = ref 0 in
  let clock = ref 1 in
  let idx = ref 1 in
  stack.(0) <- root;
  tin.(root) <- 0;
  preorder.(0) <- root;
  while !top >= 0 do
    let v = stack.(!top) in
    let ci = next_child.(v) in
    if ci < Array.length children.(v) then begin
      next_child.(v) <- ci + 1;
      let c = children.(v).(ci) in
      depth.(c) <- depth.(v) + 1;
      tin.(c) <- !clock;
      incr clock;
      if !idx >= graph_n then invalid_arg "Tree.of_parents: not a tree";
      preorder.(!idx) <- c;
      incr idx;
      incr top;
      stack.(!top) <- c
    end
    else begin
      tout.(v) <- !clock;
      incr clock;
      decr top
    end
  done;
  if !idx <> graph_n then invalid_arg "Tree.of_parents: does not span all nodes";
  { graph_n; root; parent; children; depth; preorder; tin; tout }

(* The n - 1 tree edges as a CSR (per-node offsets into one neighbour
   array), walked by a BFS over an int-array queue.  A spanning tree
   fixes every node's parent, so the walk order does not show in the
   result.  The CSR, queue and seen flags come from the domain's
   [Scratch]. *)
let of_edge_ids g ~root ids =
  let n = Graph.n g in
  let len = List.length ids in
  let parent = Array.make n (-1) in
  (Scratch.frame @@ fun sc ->
  let off = Scratch.filled sc (n + 1) 0 in
  List.iter
    (fun id ->
      let u, v = Graph.endpoints g id in
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1)
    ids;
  if len <> n - 1 then invalid_arg "Tree.of_edge_ids: wrong edge count";
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let fill = Scratch.ints sc n in
  Array.blit off 0 fill 0 n;
  let nbr = Scratch.ints sc (2 * len) in
  List.iter
    (fun id ->
      let u, v = Graph.endpoints g id in
      nbr.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      nbr.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    ids;
  let seen = Scratch.filled sc n 0 in
  let queue = Scratch.ints sc n in
  let head = ref 0 and tail = ref 1 in
  queue.(0) <- root;
  seen.(root) <- 1;
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for s = off.(v) to off.(v + 1) - 1 do
      let u = nbr.(s) in
      if seen.(u) = 0 then begin
        seen.(u) <- 1;
        parent.(u) <- v;
        queue.(!tail) <- u;
        incr tail
      end
    done
  done;
  if !tail <> n then invalid_arg "Tree.of_edge_ids: edges do not span the graph");
  of_parents ~graph_n:n ~root ~parent

let bfs_tree g ~root =
  let r = Bfs.run g ~source:root in
  if not (Array.for_all (fun d -> d >= 0) r.dist) then
    invalid_arg "Tree.bfs_tree: disconnected graph";
  of_parents ~graph_n:(Graph.n g) ~root ~parent:r.parent

let is_ancestor t a v = t.tin.(a) <= t.tin.(v) && t.tout.(v) <= t.tout.(a)

let height t = Array.fold_left max 0 t.depth

let n_nodes t = t.graph_n

let accumulate_up t x =
  if Array.length x <> t.graph_n then invalid_arg "Tree.accumulate_up: length mismatch";
  let y = Array.copy x in
  for i = t.graph_n - 1 downto 1 do
    let v = t.preorder.(i) in
    y.(t.parent.(v)) <- y.(t.parent.(v)) + y.(v)
  done;
  y

let subtree_members t v =
  (* preorder indices of v↓ are contiguous: locate v then scan by tin/tout *)
  let acc = ref [] in
  Array.iter (fun u -> if is_ancestor t v u then acc := u :: !acc) t.preorder;
  List.rev !acc

module Lca = struct
  type tree = t

  (* Over preorder positions, [table] level [k] holds at [k * n + i] the
     shallowest node among positions [i .. i + 2^k - 1] (ties either
     way).  For [u <> v] with [pos u < pos v], positions
     [(pos u, pos v]] all lie strictly inside [lca u v]'s subtree and
     include the child of the LCA on the way to [v], so the LCA is the
     parent of any shallowest node there. *)
  type t = {
    n : int;
    pos : int array;
    log2 : int array;  (* floor log2 of 1 .. n, at the index itself *)
    table : int array;
    depth : int array;
    parent : int array;
  }

  let build sc (tr : tree) =
    let n = tr.graph_n in
    let pos = Scratch.ints sc n in
    Array.iteri (fun i v -> pos.(v) <- i) tr.preorder;
    let log2 = Scratch.ints sc (n + 1) in
    log2.(0) <- 0;
    log2.(1) <- 0;
    for i = 2 to n do
      log2.(i) <- log2.(i / 2) + 1
    done;
    let levels = log2.(max 1 n) + 1 in
    let table = Scratch.ints sc (levels * n) in
    Array.blit tr.preorder 0 table 0 n;
    for k = 1 to levels - 1 do
      let half = 1 lsl (k - 1) in
      for i = 0 to n - (1 lsl k) do
        let a = table.(((k - 1) * n) + i) and b = table.(((k - 1) * n) + i + half) in
        table.((k * n) + i) <- (if tr.depth.(b) < tr.depth.(a) then b else a)
      done
    done;
    { n; pos; log2; table; depth = tr.depth; parent = tr.parent }

  let query t a b =
    if a = b then a
    else
      let pa = t.pos.(a) and pb = t.pos.(b) in
      let lo = 1 + Int.min pa pb and hi = Int.max pa pb in
      let k = t.log2.(hi - lo + 1) in
      let x = t.table.((k * t.n) + lo) and y = t.table.((k * t.n) + hi - (1 lsl k) + 1) in
      t.parent.(if t.depth.(y) < t.depth.(x) then y else x)
end
