(* gc — where a full-fidelity exact solve's memory traffic goes.

   Each graph is solved with the exact pipeline at full fidelity
   ([Params.default]: BFS, leader election and every within-fragment
   program of each packed tree run on the CONGEST engine), workers 1.
   Per op the artifact (BENCH_gc.json; BENCH_gc_quick.json in --quick)
   records, from [Gc.quick_stat] deltas:

   - minor words: allocated on the minor heap;
   - promoted words: copied to the major heap by minor collections;
   - direct-major words: allocated straight into the major heap (a
     block over [Max_young_wosize] = 256 words, such as a per-node
     array once n > 256);
   - minor and major collection counts;

   and, from the runtime's own [Runtime_events] spans, the share of
   wall time spent in minor collections, in the remembered-set scan
   inside them, and in major slices.

   The graphs straddle the 256-word line: the 18×18 torus (n = 324) is
   above it, the 16×16 torus (n = 256) on it and G(144, 0.3) below it.
   A major-heap array that is written young values keeps those values
   alive through the next minor collection even after the array itself
   is dead, because the remembered set still points into it; promoted
   words on the 18×18 torus are what that costs, and the gate is a
   budget on them. *)

module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Rng = Mincut_util.Rng
module Json = Mincut_util.Json
module Api = Mincut_core.Api
module Params = Mincut_core.Params

let graphs () =
  [
    ("torus18", Generators.torus 18 18);
    ("torus16", Generators.torus 16 16);
    ("gnp144", Generators.gnp_connected ~rng:(Rng.create 1) 144 0.3);
  ]

(* Promoted words per 18×18-torus op.  Fitted to the solve whose engine
   hands back reduced states and clears its own, and whose per-tree int
   temporaries come from the per-domain scratch (0.376 M words per op),
   with ~15% headroom; the solve that left young values behind in dead
   major-heap arrays promoted 1.196 M. *)
let promoted_budget = 430_000.0

(* Time spent in each runtime phase we report, in ns, accumulated from
   begin/end pairs.  Phases of one kind do not nest. *)
let tracked = Runtime_events.[ EV_MINOR; EV_MINOR_REMEMBERED_SET; EV_MAJOR_SLICE ]

type phases = {
  began : (Runtime_events.runtime_phase, int64) Hashtbl.t;
  spent : float array;
  mutable forced : int;  (* minor collections forced by [caml_make_vect] *)
}

let phase_index ph =
  let rec find i = function
    | [] -> None
    | p :: rest -> if p = ph then Some i else find (i + 1) rest
  in
  find 0 tracked

let callbacks (ph : phases) lost =
  let runtime_begin _ ts phase =
    if phase_index phase <> None then
      Hashtbl.replace ph.began phase (Runtime_events.Timestamp.to_int64 ts)
  in
  let runtime_end _ ts phase =
    match (phase_index phase, Hashtbl.find_opt ph.began phase) with
    | Some i, Some t0 ->
        Hashtbl.remove ph.began phase;
        ph.spent.(i) <-
          ph.spent.(i) +. Int64.to_float (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0)
    | _ -> ()
  in
  let runtime_counter _ _ counter k =
    if counter = Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT then ph.forced <- ph.forced + k
  in
  let lost_events _ k = lost := !lost + k in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~runtime_counter ~lost_events ()

let measure ~ops cursor (name, g) =
  let solve () = ignore (Api.min_cut ~params:Params.default g) in
  solve ();
  let ph = { began = Hashtbl.create 8; spent = Array.make (List.length tracked) 0.0; forced = 0 } in
  let lost = ref 0 in
  let cb = callbacks ph lost in
  (* drain what the warm-up left in the ring, then poll after every op,
     so only an op that outruns the ring on its own loses events, and
     [lost_events] counts them *)
  ignore (Runtime_events.read_poll cursor cb None);
  Hashtbl.reset ph.began;
  Array.fill ph.spent 0 (Array.length ph.spent) 0.0;
  ph.forced <- 0;
  lost := 0;
  let s0 = Gc.quick_stat () in
  let wall = ref 0.0 in
  for _ = 1 to ops do
    let t0 = Unix.gettimeofday () in
    solve ();
    wall := !wall +. (Unix.gettimeofday () -. t0);
    ignore (Runtime_events.read_poll cursor cb None)
  done;
  let s1 = Gc.quick_stat () in
  let per x = x /. float_of_int ops in
  let per_int a b = per (float_of_int (b - a)) in
  let ms = per (!wall *. 1000.0) in
  let minor = per (s1.Gc.minor_words -. s0.Gc.minor_words) in
  let promoted = per (s1.Gc.promoted_words -. s0.Gc.promoted_words) in
  let direct_major = per (s1.Gc.major_words -. s0.Gc.major_words) -. promoted in
  let minor_gcs = per_int s0.Gc.minor_collections s1.Gc.minor_collections in
  let forced = per_int 0 ph.forced in
  let major_gcs = per_int s0.Gc.major_collections s1.Gc.major_collections in
  let share i = ph.spent.(i) /. (!wall *. 1e9) in
  let row =
    [
      ("graph", Json.String name);
      ("n", Json.Int (Graph.n g));
      ("m", Json.Int (Graph.m g));
      ("ops", Json.Int ops);
      ("ms_per_op", Json.Float ms);
      ("minor_words_per_op", Json.Float minor);
      ("promoted_words_per_op", Json.Float promoted);
      ("direct_major_words_per_op", Json.Float direct_major);
      ("minor_gcs_per_op", Json.Float minor_gcs);
      ("forced_minor_gcs_per_op", Json.Float forced);
      ("major_gcs_per_op", Json.Float major_gcs);
      ("minor_gc_share", Json.Float (share 0));
      ("remembered_set_share", Json.Float (share 1));
      ("major_slice_share", Json.Float (share 2));
      ("lost_events", Json.Int !lost);
    ]
  in
  Printf.printf
    "  %-8s n=%-4d %6.1f ms/op  minor %.2fM  promoted %.3fM  direct-major %.3fM words/op  \
     minor GCs %.1f (%.1f forced by Array.make)  major GCs %.1f  time in minor %.1f%% \
     (remembered set %.1f%%), major slices %.1f%%%s\n%!"
    name (Graph.n g) ms (minor /. 1e6) (promoted /. 1e6) (direct_major /. 1e6) minor_gcs forced
    major_gcs (100.0 *. share 0) (100.0 *. share 1) (100.0 *. share 2)
    (if !lost > 0 then Printf.sprintf " (%d runtime events lost)" !lost else "");
  (name, promoted, Json.Obj row)

let run () =
  let quick = !Sim.quick in
  let path = if quick then "BENCH_gc_quick.json" else "BENCH_gc.json" in
  Artifact.guard ~path ~bench:"gc"
  @@ fun emit ->
  let ops = if quick then 3 else 20 in
  let gc = Gc.get () in
  Printf.printf
    "gc: full-fidelity exact solves, %d ops each (minor heap %d words, space_overhead %d)\n%!" ops
    gc.Gc.minor_heap_size gc.Gc.space_overhead;
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let rows =
    Fun.protect
      ~finally:(fun () -> Runtime_events.free_cursor cursor)
      (fun () -> List.map (measure ~ops cursor) (graphs ()))
  in
  Runtime_events.pause ();
  let promoted18 =
    List.fold_left (fun acc (w, p, _) -> if w = "torus18" then p else acc) 0.0 rows
  in
  let pass = promoted18 <= promoted_budget in
  emit
    (Json.Obj
       [
         ("bench", Json.String "gc");
         ("quick", Json.Bool quick);
         ("host_cores", Json.Int (Domain.recommended_domain_count ()));
         ("minor_heap_size", Json.Int gc.Gc.minor_heap_size);
         ("space_overhead", Json.Int gc.Gc.space_overhead);
         ("graphs", Json.List (List.map (fun (_, _, j) -> j) rows));
         ("promoted_budget_torus18", Json.Float promoted_budget);
         ("gate_pass", Json.Bool pass);
       ]);
  if not pass then
    failwith
      (Printf.sprintf
         "gc: %.0f promoted words per torus18 op exceeds the %.0f-word budget" promoted18
         promoted_budget);
  Printf.printf "gc gate: PASS (torus18 promoted %.0f <= %.0f words/op); wrote %s\n%!" promoted18
    promoted_budget path
