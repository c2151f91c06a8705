type t = { mutable h : int64 }

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let create () = { h = offset_basis }

let add_byte t b =
  t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int (b land 0xff))) prime

let add_int64 t x =
  for i = 0 to 7 do
    add_byte t (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done

let add_int t x = add_int64 t (Int64.of_int x)

let add_string t s = String.iter (fun c -> add_byte t (Char.code c)) s

let value t = t.h

let to_hex v = Printf.sprintf "%016Lx" v

let of_hex s =
  if String.length s <> 16 then None
  else
    try Some (Int64.of_string ("0x" ^ s)) with Failure _ -> None
