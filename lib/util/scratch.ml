(* One stack of growable int arrays per domain.  [top] is the first
   free slot; a frame records it on entry and restores it on exit, so
   frames release in LIFO order, which is the only order calls on one
   domain can end in.  [depth] catches a frame used after it ended. *)
type stack = { mutable slots : int array array; mutable top : int; mutable depth : int }

type frame = { stack : stack; level : int }

let key : stack Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { slots = [||]; top = 0; depth = 0 })

let frame f =
  let stack = Domain.DLS.get key in
  let mark = stack.top in
  stack.depth <- stack.depth + 1;
  let fr = { stack; level = stack.depth } in
  Fun.protect
    ~finally:(fun () ->
      stack.top <- mark;
      stack.depth <- fr.level - 1)
    (fun () -> f fr)

let ints fr len =
  let st = fr.stack in
  if fr.level <> st.depth then invalid_arg "Scratch.ints: frame is not the innermost live one";
  let i = st.top in
  if i = Array.length st.slots then begin
    let bigger = Array.make (max 8 (2 * i)) [||] in
    Array.blit st.slots 0 bigger 0 i;
    st.slots <- bigger
  end;
  let a = st.slots.(i) in
  let a =
    if Array.length a >= len then a
    else begin
      let b = Array.make (max len (2 * Array.length a)) 0 in
      st.slots.(i) <- b;
      b
    end
  in
  st.top <- i + 1;
  a

let filled fr len x =
  let a = ints fr len in
  Array.fill a 0 len x;
  a
