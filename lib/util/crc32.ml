(* Table-driven CRC-32 over the reflected IEEE polynomial.  The table is
   built once at module initialization; entries are plain ints masked to
   32 bits. *)

let table =
  let t = Array.make 256 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 1 to 8 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(i) <- !c
  done;
  t

let bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes: range out of bounds";
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b i) in
    crc := table.((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF
