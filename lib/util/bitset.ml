let bits_per_word = 62

type t = { n : int; words : int array }

let create n =
  assert (n >= 0);
  { n; words = Array.make (((n + bits_per_word) - 1) / bits_per_word + 1) 0 }

let capacity t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let to_list t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if mem t i then acc := i :: !acc
  done;
  !acc

let copy t = { n = t.n; words = Array.copy t.words }

let complement_inplace t =
  for i = 0 to t.n - 1 do
    let w = i / bits_per_word in
    t.words.(w) <- t.words.(w) lxor (1 lsl (i mod bits_per_word))
  done

let equal a b =
  a.n = b.n
  &&
  let rec go i = i >= Array.length a.words || (a.words.(i) = b.words.(i) && go (i + 1)) in
  go 0
