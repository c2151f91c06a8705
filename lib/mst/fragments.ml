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
    let h =
      Array.fold_left
        (fun acc c -> if is_root.(c) then acc else max acc (pending.(c) + 1))
        0 tree.Tree.children.(v)
    in
    pending.(v) <- h;
    if h >= target then is_root.(v) <- true
  done;
  is_root.(tree.Tree.root) <- true;
  (* fragment index assignment in preorder of fragment roots *)
  let frag_of = Array.make n (-1) in
  let index_of_root = Hashtbl.create 64 in
  let roots_rev = ref [] in
  let k = ref 0 in
  Array.iter
    (fun v ->
      if is_root.(v) then begin
        Hashtbl.add index_of_root v !k;
        roots_rev := v :: !roots_rev;
        incr k
      end)
    tree.Tree.preorder;
  let roots = Array.of_list (List.rev !roots_rev) in
  let depth_in_frag = Array.make n 0 in
  Array.iter
    (fun v ->
      if is_root.(v) then begin
        frag_of.(v) <- Hashtbl.find index_of_root v;
        depth_in_frag.(v) <- 0
      end
      else begin
        let p = tree.Tree.parent.(v) in
        frag_of.(v) <- frag_of.(p);
        depth_in_frag.(v) <- depth_in_frag.(p) + 1
      end)
    tree.Tree.preorder;
  let members = Array.make !k [] in
  for v = n - 1 downto 0 do
    members.(frag_of.(v)) <- v :: members.(frag_of.(v))
  done;
  let ids = Array.map (fun ms -> List.fold_left min max_int ms) members in
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
  Array.iteri (fun v d -> heights.(frag_of.(v)) <- max heights.(frag_of.(v)) d) depth_in_frag;
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

let max_height t = Array.fold_left max 0 t.heights

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
            (fun i -> t.ids.(i) = List.fold_left min max_int t.members.(i))
            (Array.init k (fun i -> i))
        then Ok "fragments valid"
        else fail "bad fragment id"
  end
