(* compare: parent runs against change runs, one verdict per workload ×
   end-to-end metric, judged by the bounds in BENCHMARK.json.

     main.exe compare PARENT.jsonl... -- CHANGE.jsonl... [--claim W:METRIC]

   Inputs are results/runs.jsonl files (one record per run; traced
   records are skipped).  Runs are grouped by (workload, seed, seconds):
   only runs of the same inputs and run length are pooled or paired, and
   each group present on both sides gets its own rows; a group present
   on one side only is named and left out.  Per cell it prints both
   sides' median and quartiles, the ratio change/parent with its base,
   and a verdict:

   - unresolved: the parent's own interquartile spread exceeds the
     bound, or a run of either side was on a noisy host — unless every
     change run beats every parent run, which is then "improved";
   - worse: the change's median is worse by more than the bound;
   - improved: better by more than the bound;
   - unchanged: otherwise.

   [--claim W:METRIC] also applies the pair rule to that cell: pairing
   the i-th parent run with the i-th change run (run them alternately),
   the change must win at least 9 of every 10 pairs, ties counting for
   neither, and its median must beat the parent's by more than the
   parent's spread.  Exit code 1 when any cell is worse or the claim
   fails. *)

module Json = Mincut_util.Json

type run = {
  workload : string;
  seed : int;
  seconds : float;
  noisy : bool;
  metrics : (string * float) list;
}

let read_runs path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         match Json.of_string line with
         | Error e -> failwith (Printf.sprintf "%s: %s" path e)
         | Ok j -> (
             let get k = Json.member k j in
             let seed = Option.bind (get "seed") Json.to_int
             and seconds = Option.bind (get "seconds") Json.to_float in
             match (Option.bind (get "workload") Json.to_str, seed, seconds, get "trace") with
             | Some _, _, _, Some (Json.Bool true) -> None
             | Some workload, Some seed, Some seconds, _ ->
                 let noisy =
                   match Option.bind (get "host") (Json.member "noisy_host") with
                   | Some (Json.Bool b) -> b
                   | _ -> false
                 in
                 let metrics =
                   Option.bind (get "metrics") Json.to_obj
                   |> Option.value ~default:[]
                   |> List.filter_map (fun (k, v) ->
                          Option.map (fun x -> (k, x))
                            (Option.bind (Json.member "value" v) Json.to_float))
                 in
                 Some { workload; seed; seconds; noisy; metrics }
             | _ -> failwith (path ^ ": a record lacks workload, seed or seconds")))

(* the quartiles Python's statistics.quantiles(xs, n=4) gives (its
   default "exclusive" method), so these agree with the usual tooling *)
let quartiles xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type side = { values : float array; noisy : bool }

(* one metric over the runs of one group, in file order *)
let side runs ~metric =
  {
    values = Array.of_list (List.filter_map (fun r -> List.assoc_opt metric r.metrics) runs);
    noisy = List.exists (fun (r : run) -> r.noisy) runs;
  }

(* [better a b]: a reads better than b *)
let verdict (m : Spec.metric) ~parent ~change =
  let better a b = if m.Spec.lower_is_better then a < b else a > b in
  let p1, pm, p3 = quartiles parent.values and _, cm, _ = quartiles change.values in
  let spread = (p3 -. p1) /. Float.abs pm in
  let bound = Option.value m.Spec.bound ~default:0.0 in
  let worse_by =
    if pm = 0.0 then 0.0
    else if m.Spec.lower_is_better then (cm -. pm) /. Float.abs pm
    else (pm -. cm) /. Float.abs pm
  in
  let dominates =
    Array.for_all (fun c -> Array.for_all (fun p -> better c p) parent.values) change.values
  in
  if spread > bound || parent.noisy || change.noisy then
    if dominates then "improved" else "unresolved"
  else if worse_by > bound then "worse"
  else if -.worse_by > bound then "improved"
  else "unchanged"

let pair_claim (m : Spec.metric) ~parent ~change =
  let better a b = if m.Spec.lower_is_better then a < b else a > b in
  let pairs = min (Array.length parent.values) (Array.length change.values) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better change.values.(i) parent.values.(i) then incr wins
  done;
  let p1, pm, p3 = quartiles parent.values and _, cm, _ = quartiles change.values in
  let met =
    pairs > 0
    && float_of_int !wins >= 0.9 *. float_of_int pairs
    && better cm pm
    && Float.abs (cm -. pm) > p3 -. p1
  in
  (met, !wins, pairs)

let main args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> failwith "compare: expected PARENT.jsonl... -- CHANGE.jsonl..."
  in
  let parent_files, rest = split [] args in
  let rec claims files claim = function
    | "--claim" :: c :: rest -> claims files (Some c) rest
    | f :: rest -> claims (f :: files) claim rest
    | [] -> (List.rev files, claim)
  in
  let change_files, claim = claims [] None rest in
  let spec = Spec.load () in
  let parent = List.concat_map read_runs parent_files in
  let change = List.concat_map read_runs change_files in
  let bad = ref false in
  Printf.printf "%-24s %-15s %-34s %-34s %8s  %s\n" "workload seed/seconds" "metric"
    "parent median [q1, q3] (n)" "change median [q1, q3] (n)" "ratio" "verdict";
  let group runs (seed, seconds) workload =
    List.filter
      (fun r -> String.equal r.workload workload && r.seed = seed && r.seconds = seconds)
      runs
  in
  List.iter
    (fun workload ->
      let keys =
        List.filter_map
          (fun r -> if String.equal r.workload workload then Some (r.seed, r.seconds) else None)
          (parent @ change)
        |> List.sort_uniq compare
      in
      List.iter
        (fun ((seed, seconds) as key) ->
          let label = Printf.sprintf "%s %d/%gs" workload seed seconds in
          match (group parent key workload, group change key workload) with
          | [], rs | rs, [] ->
              Printf.printf "%-24s only %s has runs (%d): not compared\n" label
                (if group parent key workload = [] then "the change" else "the parent")
                (List.length rs)
          | pr, cr ->
              List.iter
                (fun (m : Spec.metric) ->
                  let metric = m.Spec.name in
                  let p = side pr ~metric and c = side cr ~metric in
                  if Array.length p.values > 0 && Array.length c.values > 0 then begin
                    let show s =
                      let q1, q2, q3 = quartiles s.values in
                      Printf.sprintf "%.4g [%.4g, %.4g] (%d)" q2 q1 q3 (Array.length s.values)
                    in
                    let _, pm, _ = quartiles p.values and _, cm, _ = quartiles c.values in
                    let v = verdict m ~parent:p ~change:c in
                    if String.equal v "worse" then bad := true;
                    Printf.printf "%-24s %-15s %-34s %-34s %8.4f  %s (base %.4g %s)\n" label
                      metric (show p) (show c) (cm /. pm) v pm m.Spec.unit_;
                    if claim = Some (workload ^ ":" ^ metric) then begin
                      let met, wins, pairs = pair_claim m ~parent:p ~change:c in
                      if not met then bad := true;
                      Printf.printf "  claim %s:%s: change wins %d of %d pairs -> %s\n"
                        workload metric wins pairs
                        (if met then "met" else "not met")
                    end
                  end)
                spec.Spec.end_to_end)
        keys)
    spec.Spec.workloads;
  if !bad then exit 1
