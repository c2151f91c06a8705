(* 2^62 exceeds max_int, so k = 62 answers every x above 2^61 *)
let ceil_log2 x =
  let rec go k = if k >= 62 || 1 lsl k >= x then k else go (k + 1) in
  go 0
