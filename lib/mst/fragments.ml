module Tree = Mincut_graph.Tree

type t = {
  tree : Tree.t;
  target : int;
  frag_of : int array;
  roots : int array;
  members : int list array;
  ids : int array;
  frag_parent : int array;
  frag_children : int list array;
  depth_in_frag : int array;
  heights : int array;
}

let partition (tree : Tree.t) ~target =
  if target < 1 then invalid_arg "Fragments.partition: target must be >= 1";
  let n = tree.Tree.graph_n in
  (* Bottom-up: pending height of the not-yet-assigned subtree hanging at
     each node; close a fragment when it reaches [target]. *)
  let pending = Array.make n 0 in
  let is_root = Array.make n false in
  for i = n - 1 downto 0 do
    let v = tree.Tree.preorder.(i) in
    let kids = tree.Tree.children.(v) in
    let h = ref 0 in
    for j = 0 to Array.length kids - 1 do
      let c = kids.(j) in
      if not is_root.(c) then h := Int.max !h (pending.(c) + 1)
    done;
    pending.(v) <- !h;
    if !h >= target then is_root.(v) <- true
  done;
  is_root.(tree.Tree.root) <- true;
  (* fragment indices in preorder of fragment roots: one preorder pass
     numbers each root as it meets it, and every other node inherits
     its parent's fragment (parents come first in preorder) *)
  let k = ref 0 in
  for v = 0 to n - 1 do
    if is_root.(v) then incr k
  done;
  let roots = Array.make !k 0 in
  let frag_of = Array.make n (-1) in
  let depth_in_frag = Array.make n 0 in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let v = tree.Tree.preorder.(i) in
    if is_root.(v) then begin
      roots.(!next) <- v;
      frag_of.(v) <- !next;
      incr next
    end
    else begin
      let p = tree.Tree.parent.(v) in
      frag_of.(v) <- frag_of.(p);
      depth_in_frag.(v) <- depth_in_frag.(p) + 1
    end
  done;
  (* descending node order: member lists come out ascending, and the
     last write of a fragment's id is its smallest member *)
  let members = Array.make !k [] in
  let ids = Array.make !k max_int in
  for v = n - 1 downto 0 do
    let f = frag_of.(v) in
    members.(f) <- v :: members.(f);
    ids.(f) <- v
  done;
  let frag_parent =
    Array.map
      (fun r ->
        let p = tree.Tree.parent.(r) in
        if p = -1 then -1 else frag_of.(p))
      roots
  in
  let frag_children = Array.make !k [] in
  Array.iteri
    (fun i p -> if p <> -1 then frag_children.(p) <- i :: frag_children.(p))
    frag_parent;
  let heights = Array.make !k 0 in
  for v = 0 to n - 1 do
    let f = frag_of.(v) in
    heights.(f) <- Int.max heights.(f) depth_in_frag.(v)
  done;
  {
    tree;
    target;
    frag_of;
    roots;
    members;
    ids;
    frag_parent;
    frag_children;
    depth_in_frag;
    heights;
  }

let count t = Array.length t.roots

let max_height t = Array.fold_left Int.max 0 t.heights

let check_invariants t =
  let n = t.tree.Tree.graph_n in
  let k = count t in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Array.exists (fun f -> f < 0 || f >= k) t.frag_of then fail "unassigned node"
  else if List.length (List.concat (Array.to_list t.members)) <> n then
    fail "members do not partition V"
  else if max_height t > t.target then
    fail "fragment height %d exceeds target %d" (max_height t) t.target
  else if k > (n / t.target) + 1 then
    fail "too many fragments: %d > n/target + 1 = %d" k ((n / t.target) + 1)
  else begin
    (* each fragment must be a connected subtree: every non-root member's
       parent is in the same fragment *)
    let ok = ref (Ok ()) in
    Array.iteri
      (fun i ms ->
        List.iter
          (fun v ->
            if v <> t.roots.(i) then begin
              let p = t.tree.Tree.parent.(v) in
              if p = -1 || t.frag_of.(p) <> i then
                ok := Error (Printf.sprintf "fragment %d is not a subtree at node %d" i v)
            end)
          ms)
      t.members;
    match !ok with
    | Error _ as e -> e
    | Ok () ->
        (* fragment ids are the min member ids *)
        if
          Array.for_all
            (fun i -> t.ids.(i) = List.fold_left Int.min max_int t.members.(i))
            (Array.init k (fun i -> i))
        then Ok "fragments valid"
        else fail "bad fragment id"
  end
