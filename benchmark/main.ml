(* The repo benchmark (see README.md and ../BENCHMARK.json).

   Usage, from the repository root:
     main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]
     main.exe suite [--seed N] [--seconds S]
   (--seed defaults to 1, --seconds to BENCHMARK.json's run_seconds)
     main.exe compare PARENT.jsonl... -- CHANGE.jsonl... [--claim W:METRIC]

   [run] measures one workload in this process and prints one JSON
   object as its last stdout line: the end-to-end metrics with
   [--trace 0], the per-layer metrics of the traced shadow with
   [--trace 1].  [suite] runs every workload, untraced then traced, each
   in its own child process so heap, caches and peak RSS start fresh.
   Every run also appends a record with the host to results/runs.jsonl,
   which is what [compare] reads. *)

module Json = Mincut_util.Json
module Stats = Mincut_util.Stats

let results_dir = Filename.concat "benchmark" "results"

let workloads =
  [
    ("solve-dense", Solve.run ~shapes:Solve.dense);
    ("solve-deep", Solve.run ~shapes:Solve.deep);
    ("serve-mix", Serve_mix.run);
    ("session-churn", Churn.run);
  ]

(* the timing figures over the items of the cycle, each at its typical
   time at the reference speed (see Common.outcome) *)
let end_to_end (o : Common.outcome) =
  let items = Array.length o.Common.busy_ms in
  let busy_s = Array.fold_left ( +. ) 0.0 o.Common.busy_ms /. 1000.0 in
  let pct q = Stats.percentile o.Common.latency_ms q in
  [
    ("ops_per_s", float_of_int items /. busy_s);
    ("latency_p50_ms", pct 0.5);
    ("latency_p90_ms", pct 0.9);
    ("latency_p99_ms", pct 0.99);
    ("congest_rounds", o.Common.rounds);
    ("setup_s", o.Common.setup_s);
    ("peak_rss_mb", float_of_int o.Common.peak_rss_kb /. 1024.0);
  ]

let ensure_results_dir () =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755

let append_record json =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_text ] 0o644
      (Filename.concat results_dir "runs.jsonl")
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

let run_one ~workload ~seed ~seconds ~trace =
  let spec = Spec.load () in
  let f =
    match List.assoc_opt workload workloads with
    | Some f when List.mem workload spec.Spec.workloads -> f
    | _ -> failwith (Printf.sprintf "unknown workload %S" workload)
  in
  ensure_results_dir ();
  let load0 = Host.loadavg () in
  let write_trace spans =
    Trace.write (Filename.concat results_dir ("trace-" ^ workload ^ ".jsonl")) spans
  in
  let o = f ~seed ~seconds ~trace ~write_trace in
  let host = Host.record ~start:load0 in
  let values = if trace then o.Common.layers else end_to_end o in
  let wanted = if trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun m -> String.equal m.Spec.name name) wanted) then
        failwith (Printf.sprintf "metric %S is not declared in %s" name Spec.path))
    values;
  (* a per-layer metric of a layer this workload never enters reads 0 *)
  let metrics =
    Json.Obj
      (List.map
         (fun m ->
           let v = Option.value (List.assoc_opt m.Spec.name values) ~default:0.0 in
           ( m.Spec.name,
             Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.Spec.unit_) ] ))
         wanted)
  in
  let failed = List.length o.Common.failures in
  let correct = failed = 0 in
  List.iteri
    (fun i msg -> if i < 20 then Printf.eprintf "FAILED: %s\n" msg)
    o.Common.failures;
  let result =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int o.Common.attempted);
      ("failed", Json.Int failed);
      ("metrics", metrics);
    ]
  in
  append_record
    (Json.Obj
       ([
          ("workload", Json.String workload);
          ("seed", Json.Int seed);
          ("seconds", Json.Float seconds);
          ("trace", Json.Bool trace);
          ("input_digest", Json.String o.Common.digest);
          ("cycle_items", Json.Int (Array.length o.Common.latency_ms));
          ("timed_ops", Json.Int o.Common.timed_ops);
          ("host_slowdown", Json.Float o.Common.slowdown);
          ("host", host.Host.json);
        ]
       @ result));
  print_endline (Json.to_string (Json.Obj result));
  if not correct then exit 1

(* each workload in a child process, untraced then traced *)
let suite ~seed ~seconds =
  let spec = Spec.load () in
  let ok = ref true in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let args =
            [|
              Sys.executable_name; "run"; "--workload"; workload; "--seed";
              string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
              "--trace"; trace;
            |]
          in
          Printf.printf "== %s (trace %s)\n%!" workload trace;
          let pid =
            Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
              Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> ok := false)
        [ "0"; "1" ])
    spec.Spec.workloads;
  if not !ok then exit 1

let usage () =
  prerr_endline
    "usage: main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
    \       main.exe suite [--seed N] [--seconds S]\n\
    \       main.exe compare PARENT.jsonl... -- CHANGE.jsonl... [--claim W:METRIC]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | ("--workload" | "--seed" | "--seconds" | "--trace") as k :: v :: rest ->
        opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let num conv k default o =
    match List.assoc_opt k o with
    | None -> default
    | Some v -> ( match conv v with Some x -> x | None -> usage ())
  in
  let seconds o = num float_of_string_opt "--seconds" (Spec.load ()).Spec.run_seconds o in
  match args with
  | "run" :: rest ->
      let o = opts [] rest in
      let workload = match List.assoc_opt "--workload" o with Some w -> w | None -> usage () in
      run_one ~workload
        ~seed:(num int_of_string_opt "--seed" 1 o)
        ~seconds:(seconds o)
        ~trace:(num int_of_string_opt "--trace" 0 o = 1)
  | "suite" :: rest ->
      let o = opts [] rest in
      suite ~seed:(num int_of_string_opt "--seed" 1 o) ~seconds:(seconds o)
  | "compare" :: rest -> Compare.main rest
  | _ -> usage ()
