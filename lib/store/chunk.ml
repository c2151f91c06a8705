type t = {
  cid : int;
  base : int;
  count : int;
  off : int array;
  nbr : int array;
  wgt : int array;
}

let min_bits = 4

let max_bits = 24

let chunk_of ~bits v = v lsr bits

let local_of ~bits v = v land ((1 lsl bits) - 1)

let num_chunks ~bits ~n = max 1 ((n + (1 lsl bits) - 1) lsr bits)

let default_bits ~n =
  (* smallest width with at most ~32 chunks *)
  let bits = ref min_bits in
  while num_chunks ~bits:!bits ~n > 32 && !bits < max_bits do
    incr bits
  done;
  !bits

let count_of ~bits ~n ~cid =
  let base = cid lsl bits in
  min (1 lsl bits) (max 0 (n - base))

let iter_neighbors c ~local ~f =
  for s = c.off.(local) to c.off.(local + 1) - 1 do
    f c.nbr.(s) c.wgt.(s)
  done

let bytes c =
  (* three int arrays at 8 bytes per element plus a small fixed header *)
  8 * (Array.length c.off + Array.length c.nbr + Array.length c.wgt + 8)
