type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  assert (bound > 0);
  (* Rejection sampling over the top 62 bits keeps the draw unbiased. *)
  let rec go () =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    let v = r mod bound in
    if r - v + (bound - 1) >= 0 then v else go ()
  in
  go ()

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let geometric t p =
  assert (p > 0.0 && p <= 1.0);
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0.0 then 1e-300 else u in
    (* below p = 2^-53, [1 - p] rounds to 1 and its log to 0; [log1p]
       keeps the denominator exact there, and elsewhere the old one is
       kept so every draw above that is unchanged *)
    let q = 1.0 -. p in
    let log_q = if q < 1.0 then log q else Float.log1p (-.p) in
    let skips = floor (log u /. log_q) in
    (* a skip past max_int is a skip past any count *)
    if skips >= Float.of_int max_int then max_int else int_of_float (Float.of_int 0 +. skips)

let binomial t n p =
  assert (n >= 0 && p >= 0.0 && p <= 1.0);
  if Float.equal p 0.0 || n = 0 then 0
  else if Float.equal p 1.0 then n
  else
    (* Skip-based counting: expected work O(np), mirrored above p = 1/2
       to keep the loop short.  The next success lands past [n] when
       [pos + 1 + skip > n], tested without overflowing at n = max_int. *)
    let rec count q acc pos =
      let skip = geometric t q in
      if skip >= n - pos then acc else count q (acc + 1) (pos + 1 + skip)
    in
    if p > 0.5 then n - count (1.0 -. p) 0 0 else count p 0 0

(* Up to this many expected successes, [binomial]'s skip-sampling is
   short (about n·p draws), and [any_success] draws exactly as it. *)
let any_success_exact_max = 256.0

let any_success t n p =
  assert (n >= 0 && p >= 0.0 && p <= 1.0);
  if Float.equal p 0.0 || n = 0 then false
  else if Float.equal p 1.0 then true
  else if float_of_int n *. p <= any_success_exact_max then binomial t n p > 0
  else float t 1.0 < -.Float.expm1 (float_of_int n *. Float.log1p (-.p))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
