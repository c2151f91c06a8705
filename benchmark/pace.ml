(* Host speed, measured between ops, so timings can be reported at a
   fixed reference speed.

   The benchmark runs on a few cores of a machine it shares.  Other
   tenants' load slows every instruction of a run, by up to ~45%, in
   phases lasting from seconds to minutes; the process's CPU time slows
   with its wall time (the cycles are not stolen, they run slower), so
   neither a longer run nor the least of an op's repeats cancels it for
   ops of a few hundred milliseconds.  A fixed kernel timed next to the
   ops does: it slows by about the same factor at the same moment.

   The kernel is breadth-first search over a fixed random graph of
   [nodes] nodes and out-degree [degree] (~1.5 MB of arrays), run [reps]
   times.  It is benchmark code that no change to the program
   touches, and it allocates nothing, so no state of the program's heap
   can slow it and it never moves the program's garbage collector.

   A pacer splits a run's ops into blocks: it times the kernel when it
   is created and again between ops once a block has held [block_ms] of
   op time, so a solve (hundreds of ms) gets a calibration on each side
   and short server ops share one every ~[block_ms].  An op's factor is
   [reference_ms] ÷ the mean kernel time of the calibrations before and
   after its block; its time times that factor is its time at the
   reference speed, where one kernel takes [reference_ms]. *)

let nodes = 1 lsl 15
let degree = 4

(* one kernel run's time on a quiet host of the kind the baseline was
   measured on (a 2.1 GHz Xeon, see baseline.json); a constant, so a
   faster or slower program moves the scaled times and a busier host
   does not *)
let reference_ms = 0.75
let reps = 6
let block_ms = 75.0

let adj =
  let a = Array.make (nodes * degree) 0 in
  let s = ref 0x2545F491 in
  for i = 0 to Array.length a - 1 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    a.(i) <- (!s lsr 7) land (nodes - 1)
  done;
  (* a ring through every node keeps the graph connected *)
  for u = 0 to nodes - 1 do
    a.(u * degree) <- (u + 1) land (nodes - 1)
  done;
  a

let dist = Array.make nodes 0
let queue = Array.make nodes 0
let sink = ref 0

let bfs root =
  Array.fill dist 0 nodes (-1);
  dist.(root) <- 0;
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 and sum = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let d = dist.(u) + 1 in
    for k = u * degree to (u * degree) + degree - 1 do
      let v = adj.(k) in
      if dist.(v) < 0 then begin
        dist.(v) <- d;
        queue.(!tail) <- v;
        incr tail;
        sum := !sum + d
      end
    done
  done;
  sink := !sink + !sum

let roots = ref 0

(* one calibration: the mean time of [reps] kernel runs, in ms *)
let measure () =
  let t0 = Trace.now () in
  for _ = 1 to reps do
    bfs (!roots land (nodes - 1));
    roots := !roots + 7919
  done;
  (Trace.now () -. t0) *. 1000.0 /. float_of_int reps

type t = {
  mutable cals : float list;  (** kernel times, newest first *)
  mutable blocks : int;  (** calibrations so far; block b lies between the b-th and the next *)
  mutable since : float;  (** op time in the open block, ms *)
}

let create () = { cals = [ measure () ]; blocks = 1; since = 0.0 }

(* the block the next op belongs to *)
let block t = t.blocks - 1

(* after each op, with its time: close the block once it is full *)
let after_op t ms =
  t.since <- t.since +. ms;
  if t.since >= block_ms then begin
    t.cals <- measure () :: t.cals;
    t.blocks <- t.blocks + 1;
    t.since <- 0.0
  end

(* after the last op: the factor of every block, and the median kernel
   time over the run relative to [reference_ms] (how slow the host
   ran) *)
let finish t =
  let cals = Array.of_list (List.rev (measure () :: t.cals)) in
  let factors =
    Array.init t.blocks (fun b -> reference_ms /. ((cals.(b) +. cals.(b + 1)) /. 2.0))
  in
  (factors, Mincut_util.Stats.percentile cals 0.5 /. reference_ms)

(* [f ()]'s wall time in seconds, scaled to the reference speed by
   calibrations on either side *)
let timed f =
  let c0 = measure () in
  let t0 = Trace.now () in
  let v = f () in
  let s = Trace.now () -. t0 in
  let c1 = measure () in
  (s *. reference_ms /. ((c0 +. c1) /. 2.0), v)
