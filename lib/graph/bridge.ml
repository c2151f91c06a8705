(* Iterative Tarjan bridge finding.  A tree edge (v, child) is a bridge
   iff low(child) > tin(v), where low ignores the specific edge used to
   reach the child (not just the parent node — this is what makes
   parallel edges non-bridges). *)
let bridges g =
  let n = Graph.n g in
  let tin = Array.make n (-1) in
  let low = Array.make n max_int in
  let timer = ref 0 in
  let out = ref [] in
  let parent_edge = Array.make n (-1) in
  for start = 0 to n - 1 do
    if tin.(start) = -1 then begin
      let stack = Stack.create () in
      Stack.push (start, 0) stack;
      tin.(start) <- !timer;
      low.(start) <- !timer;
      incr timer;
      while not (Stack.is_empty stack) do
        let v, i = Stack.pop stack in
        let adj = Graph.adj g v in
        if i < Array.length adj then begin
          Stack.push (v, i + 1) stack;
          let u, id = adj.(i) in
          if id <> parent_edge.(v) then begin
            if tin.(u) = -1 then begin
              parent_edge.(u) <- id;
              tin.(u) <- !timer;
              low.(u) <- !timer;
              incr timer;
              Stack.push (u, 0) stack
            end
            else low.(v) <- min low.(v) tin.(u)
          end
        end
        else if v <> start then begin
          (* retreat: propagate low to the parent, test the tree edge *)
          let id = parent_edge.(v) in
          let p = Graph.other_endpoint g id v in
          low.(p) <- min low.(p) low.(v);
          if low.(v) > tin.(p) then out := id :: !out
        end
      done
    end
  done;
  List.rev !out
