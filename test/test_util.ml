open Test_helpers
module Rng = Mincut_util.Rng
module Stats = Mincut_util.Stats
module Heap = Mincut_util.Heap
module Bitset = Mincut_util.Bitset
module Table = Mincut_util.Table
module Intset = Mincut_util.Intset
module Intmath = Mincut_util.Intmath

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different streams" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    check_bool "in range" true (x >= 0 && x < 10)
  done

let test_rng_int_covers () =
  let rng = Rng.create 3 in
  let seen = Array.make 6 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 6) <- true
  done;
  check_bool "all values hit" true (Array.for_all (fun b -> b) seen)

let test_rng_int_in () =
  let rng = Rng.create 9 in
  for _ = 1 to 200 do
    let x = Rng.int_in rng 5 8 in
    check_bool "in closed range" true (x >= 5 && x <= 8)
  done

let test_rng_bernoulli_bias () =
  (* a Bernoulli(p) draw is a one-trial binomial *)
  let rng = Rng.create 11 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    hits := !hits + Rng.binomial rng 1 0.3
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  check_bool "close to 0.3" true (abs_float (freq -. 0.3) < 0.02)

let test_rng_binomial_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 500 do
    let x = Rng.binomial rng 20 0.4 in
    check_bool "within [0,n]" true (x >= 0 && x <= 20)
  done

let test_rng_binomial_mean () =
  let rng = Rng.create 17 in
  let total = ref 0 in
  let trials = 5000 in
  for _ = 1 to trials do
    total := !total + Rng.binomial rng 50 0.5
  done;
  let mean = float_of_int !total /. float_of_int trials in
  check_bool "mean near np=25" true (abs_float (mean -. 25.0) < 0.5)

let test_rng_binomial_extremes () =
  let rng = Rng.create 19 in
  check_int "p=0" 0 (Rng.binomial rng 10 0.0);
  check_int "p=1" 10 (Rng.binomial rng 10 1.0);
  check_int "n=0" 0 (Rng.binomial rng 0 0.5)

(* [binomial] as it was written before its loop learned to stop
   without overflowing: the draw-for-draw oracle for it and for
   [any_success] *)
let ref_binomial t n p =
  if Float.equal p 0.0 || n = 0 then 0
  else if Float.equal p 1.0 then n
  else
    let rec count q acc pos =
      let pos = pos + 1 + Rng.geometric t q in
      if pos > n then acc else count q (acc + 1) pos
    in
    if p > 0.5 then n - count (1.0 -. p) 0 0 else count p 0 0

let rng_cases =
  List.concat_map
    (fun n -> List.map (fun p -> (n, p)) [ 0.0; 1e-6; 0.01; 0.125; 0.3; 0.5; 0.51; 0.9; 1.0 ])
    [ 0; 1; 2; 7; 100; 512; 2000 ]

let test_rng_binomial_matches_oracle () =
  List.iter
    (fun seed ->
      List.iter
        (fun (n, p) ->
          let a = Rng.create seed and b = Rng.create seed in
          let name = Printf.sprintf "seed %d n=%d p=%g" seed n p in
          check_int (name ^ ": same count") (ref_binomial b n p) (Rng.binomial a n p);
          check_bool (name ^ ": same state after") true (Rng.bits64 a = Rng.bits64 b))
        rng_cases)
    [ 1; 2; 3 ]

(* up to n·p = 256, any_success is binomial > 0 draw for draw; above
   it, one draw, and the answer is all but certainly yes *)
let test_rng_any_success () =
  List.iter
    (fun seed ->
      List.iter
        (fun (n, p) ->
          if float_of_int n *. p <= 256.0 then begin
            let a = Rng.create seed and b = Rng.create seed in
            let name = Printf.sprintf "seed %d n=%d p=%g" seed n p in
            check_bool (name ^ ": same answer") (ref_binomial b n p > 0) (Rng.any_success a n p);
            check_bool (name ^ ": same state after") true (Rng.bits64 a = Rng.bits64 b)
          end)
        rng_cases)
    [ 1; 2; 3 ];
  List.iter
    (fun (n, p) ->
      let a = Rng.create 5 and b = Rng.create 5 in
      check_bool (Printf.sprintf "n=%d p=%g succeeds" n p) true (Rng.any_success a n p);
      ignore (Rng.float b 1.0);
      check_bool (Printf.sprintf "n=%d p=%g: one draw" n p) true (Rng.bits64 a = Rng.bits64 b))
    [ (2000, 0.3); (100_000_000_000_000_000, 0.5); (max_int, 1e-3) ]

(* below p = 2^-53, 1 - p rounds to 1: the skip is still finite, and a
   count over n = max_int stops *)
let test_rng_tiny_p_and_huge_n () =
  let rng = Rng.create 29 in
  for _ = 1 to 100 do
    check_bool "tiny p skip is non-negative" true (Rng.geometric rng (Float.ldexp 1.0 (-60)) >= 0)
  done;
  check_bool "count at n = max_int, p = 2^-60 is small" true
    (Rng.binomial rng max_int (Float.ldexp 1.0 (-60)) < 64);
  (* w = 10^17 at p = 2^-57 is n·p < 1: the draw-for-draw path, which
     used to loop forever on a zero log(1 - p) *)
  ignore (Rng.any_success rng 100_000_000_000_000_000 (Float.ldexp 1.0 (-57)))

module Scratch = Mincut_util.Scratch

(* frames nest without sharing arrays, release on return and on raise,
   and reuse the same arrays frame after frame *)
let test_scratch_nesting () =
  let first = Scratch.frame (fun sc -> Scratch.filled sc 300 1) in
  Scratch.frame (fun sc ->
      let a = Scratch.filled sc 300 1 in
      check_bool "a later frame reuses the array" true (a == first);
      let inner =
        Scratch.frame (fun sc' ->
            let b = Scratch.filled sc' 300 2 in
            let c = Scratch.filled sc' 10 3 in
            check_bool "nested arrays are distinct" true (b != a && c != a && b != c);
            check_bool "outer array untouched" true (Array.for_all (( = ) 1) (Array.sub a 0 300));
            b)
      in
      check_bool "outer array untouched after nesting" true
        (Array.for_all (( = ) 1) (Array.sub a 0 300));
      check_bool "the next array reuses the nested one" true (Scratch.ints sc 300 == inner);
      (match Scratch.frame (fun sc' -> ignore (Scratch.ints sc' 5); failwith "boom") with
      | () -> ()
      | exception Failure _ -> ());
      check_bool "a raise releases its frame" true
        (Scratch.frame (fun sc' -> Scratch.ints sc' 300) != a);
      Scratch.frame (fun _ ->
          match Scratch.ints sc 1 with
          | _ -> Alcotest.fail "an outer frame used inside an inner one"
          | exception Invalid_argument _ -> ()));
  check_bool "a grown request gets a longer array" true
    (Scratch.frame (fun sc -> Array.length (Scratch.ints sc 5000)) >= 5000)

let test_rng_geometric () =
  let rng = Rng.create 23 in
  check_int "p=1 never skips" 0 (Rng.geometric rng 1.0);
  for _ = 1 to 100 do
    check_bool "non-negative" true (Rng.geometric rng 0.3 >= 0)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 29 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "still a permutation" true (sorted = Array.init 20 (fun i -> i))

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_bool "mean" true (abs_float (s.Stats.mean -. 3.0) < 1e-9);
  check_bool "median" true (abs_float (s.Stats.median -. 3.0) < 1e-9);
  check_bool "min" true (s.Stats.min = 1.0);
  check_bool "max" true (s.Stats.max = 5.0);
  check_int "count" 5 s.Stats.count

let test_stats_stddev () =
  let s = Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_bool "sample stddev" true (abs_float (s -. 2.13809) < 1e-3)

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_bool "p0" true (Stats.percentile xs 0.0 = 10.0);
  check_bool "p100" true (Stats.percentile xs 1.0 = 40.0);
  check_bool "p50 interpolates" true (abs_float (Stats.percentile xs 0.5 -. 25.0) < 1e-9)

let test_stats_linear_fit () =
  let slope, intercept = Stats.linear_fit [| (1.0, 3.0); (2.0, 5.0); (3.0, 7.0) |] in
  check_bool "slope 2" true (abs_float (slope -. 2.0) < 1e-9);
  check_bool "intercept 1" true (abs_float (intercept -. 1.0) < 1e-9)

let test_stats_growth_exponent () =
  (* y = 4 x^1.5 *)
  let pts = Array.map (fun x -> (x, 4.0 *. (x ** 1.5))) [| 1.0; 2.0; 4.0; 8.0; 16.0 |] in
  check_bool "exponent 1.5" true (abs_float (Stats.growth_exponent pts -. 1.5) < 1e-6)

let test_ceil_log2 () =
  let pin x want = check_int (Printf.sprintf "ceil_log2 %d" x) want (Intmath.ceil_log2 x) in
  pin 0 0;
  pin 1 0;
  pin 2 1;
  pin 3 2;
  pin 4 2;
  pin 5 3;
  for k = 2 to 61 do
    pin ((1 lsl k) - 1) k;
    pin (1 lsl k) k;
    pin ((1 lsl k) + 1) (k + 1)
  done;
  (* every x above 2^61 rounds up to 2^62, which no int reaches *)
  pin max_int 62

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  check_bool "heap sort" true (drain [] = [ 1; 1; 2; 3; 4; 5; 9 ])

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  check_bool "empty pop" true (Heap.pop h = None)

let test_heap_custom_order () =
  let h = Heap.create ~cmp:(fun a b -> compare b a) in
  List.iter (Heap.push h) [ 1; 5; 3 ];
  check_bool "max-heap via flipped cmp" true (Heap.pop h = Some 5)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 99;
  check_bool "mem 0" true (Bitset.mem s 0);
  check_bool "mem 63" true (Bitset.mem s 63);
  check_bool "mem 99" true (Bitset.mem s 99);
  check_bool "not mem 50" false (Bitset.mem s 50);
  check_int "cardinal" 3 (Bitset.cardinal s);
  Bitset.remove s 63;
  check_bool "removed" false (Bitset.mem s 63);
  check_int "cardinal after remove" 2 (Bitset.cardinal s)

let test_bitset_iteration () =
  let s = Bitset.create 10 in
  List.iter (Bitset.add s) [ 2; 5; 7 ];
  check_bool "to_list ordered" true (Bitset.to_list s = [ 2; 5; 7 ])

let test_bitset_complement () =
  let s = Bitset.create 5 in
  Bitset.add s 1;
  Bitset.add s 3;
  Bitset.complement_inplace s;
  check_bool "complement" true (Bitset.to_list s = [ 0; 2; 4 ])

let test_bitset_copy_independent () =
  let s = Bitset.create 5 in
  Bitset.add s 1;
  let c = Bitset.copy s in
  Bitset.add c 2;
  check_bool "original unchanged" false (Bitset.mem s 2);
  check_bool "equal detects" false (Bitset.equal s c)

let test_bitset_bounds () =
  let s = Bitset.create 5 in
  Alcotest.check_raises "oob add" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s 5)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  check_bool "has title" true
    (String.length s > 0 && String.sub s 0 8 = "### demo");
  check_bool "row count" true
    (List.length (String.split_on_char '\n' (String.trim s)) = 5)

let test_table_arity_check () =
  let t = Table.create ~title:"x" ~columns:[ "a" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_formats () =
  check_bool "int-like" true (Table.fmt_float 3.0 = "3");
  check_bool "decimal" true (Table.fmt_float 3.25 = "3.25");
  check_bool "ratio" true (Table.fmt_ratio 1.0 = "1.000")

let qcheck_tests =
  [
    qtest "percentile within [min,max]"
      QCheck2.Gen.(list_size (int_range 1 30) (float_bound_inclusive 100.0))
      (fun xs ->
        let a = Array.of_list xs in
        let p = Stats.percentile a 0.7 in
        p >= Array.fold_left Float.min a.(0) a && p <= Array.fold_left Float.max a.(0) a);
    qtest "heap pop is sorted"
      QCheck2.Gen.(list_size (int_range 0 50) (int_range (-100) 100))
      (fun xs ->
        let h = Heap.create ~cmp:compare in
        List.iter (Heap.push h) xs;
        let rec drain acc =
          match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
        in
        drain [] = List.sort compare xs);
    qtest "bitset add/mem roundtrip"
      QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 63))
      (fun xs ->
        let s = Bitset.create 64 in
        List.iter (Bitset.add s) xs;
        List.for_all (Bitset.mem s) xs
        && Bitset.cardinal s = List.length (List.sort_uniq compare xs));
    qtest ~count:500 "intset add/mem/remove_min vs oracle"
      QCheck2.Gen.(pair (list_size (int_range 0 12) (int_range 0 20)) (int_range (-1) 21))
      (fun (xs, y) ->
        let oracle = List.sort_uniq Int.compare xs in
        let a = List.fold_left (fun s x -> Intset.add x s) Intset.empty xs in
        Intset.elements a = oracle
        && Intset.equal a (Intset.of_list xs)
        && Intset.mem y a = List.mem y oracle
        && List.for_all (fun x -> Intset.mem x a) xs
        && Intset.elements (Intset.remove_min a)
           = (match oracle with [] -> [] | _ :: rest -> rest)
        && Intset.equal (Intset.remove_min Intset.empty) Intset.empty);
  ]

let suite =
  [
    tc "rng: deterministic" test_rng_deterministic;
    tc "rng: seeds differ" test_rng_different_seeds;
    tc "rng: int range" test_rng_int_range;
    tc "rng: int covers all values" test_rng_int_covers;
    tc "rng: int_in closed range" test_rng_int_in;
    tc "rng: bernoulli bias" test_rng_bernoulli_bias;
    tc "rng: binomial bounds" test_rng_binomial_bounds;
    tc "rng: binomial mean" test_rng_binomial_mean;
    tc "rng: binomial extremes" test_rng_binomial_extremes;
    tc "rng: geometric" test_rng_geometric;
    tc "rng: shuffle is a permutation" test_rng_shuffle_permutation;
    tc "stats: summary" test_stats_summary;
    tc "stats: stddev" test_stats_stddev;
    tc "stats: percentile" test_stats_percentile;
    tc "stats: linear fit" test_stats_linear_fit;
    tc "stats: growth exponent" test_stats_growth_exponent;
    tc "intmath: ceil_log2 pins" test_ceil_log2;
    tc "heap: sorts" test_heap_sorts;
    tc "heap: empty" test_heap_empty;
    tc "heap: custom order" test_heap_custom_order;
    tc "bitset: basic ops" test_bitset_basic;
    tc "bitset: iteration order" test_bitset_iteration;
    tc "bitset: complement" test_bitset_complement;
    tc "bitset: copy independence" test_bitset_copy_independent;
    tc "bitset: bounds check" test_bitset_bounds;
    tc "table: render" test_table_render;
    tc "table: arity check" test_table_arity_check;
    tc "table: number formats" test_table_formats;
  ]
  @ qcheck_tests
  @ [
      tc "rng: binomial draws as before" test_rng_binomial_matches_oracle;
      tc "rng: any_success draws as binomial > 0" test_rng_any_success;
      tc "rng: tiny p and n = max_int terminate" test_rng_tiny_p_and_huge_n;
      tc "scratch: nested and repeated frames" test_scratch_nesting;
    ]
