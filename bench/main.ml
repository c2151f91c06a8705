(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe            # every experiment + microbenches
     dune exec bench/main.exe -- t2 f3   # a selection
     dune exec bench/main.exe -- tables  # tables only (no bechamel)

   Each experiment id (t1..t5, f1..f5) matches DESIGN.md §4 and
   EXPERIMENTS.md. *)

let experiments =
  [
    ("w0", Experiments.w0);
    ("t1", Experiments.t1);
    ("t2", Experiments.t2);
    ("t3", Experiments.t3);
    ("t4", Experiments.t4);
    ("t5", Experiments.t5);
    ("f1", Experiments.f1);
    ("f2", Experiments.f2);
    ("f3", Experiments.f3);
    ("f4", Experiments.f4);
    ("f5", Experiments.f5);
    ("a1", Experiments.a1);
    ("a2", Experiments.a2);
    ("a3", Experiments.a3);
    ("a4", Experiments.a4);
    ("delta", Delta.run);
    ("sim", Sim.run);
    ("gc", Gcbench.run);
  ]

let run_one id =
  match List.assoc_opt id experiments with
  | Some f ->
      Printf.printf "== experiment %s ==\n%!" id;
      let t0 = Unix.gettimeofday () in
      f ();
      Printf.printf "(%s finished in %.1fs)\n\n%!" id (Unix.gettimeofday () -. t0)
  | None -> Printf.eprintf "unknown experiment %S\n" id

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* "--csv DIR" anywhere in the arguments activates CSV artifacts;
     "--quick" shrinks iteration counts (CI smoke runs) *)
  let args =
    let rec strip = function
      | "--csv" :: dir :: rest ->
          Mincut_util.Table.set_csv_dir (Some dir);
          strip rest
      | "--quick" :: rest ->
          Sim.quick := true;
          strip rest
      | x :: rest -> x :: strip rest
      | [] -> []
    in
    strip args
  in
  match args with
  | [] ->
      List.iter (fun (id, _) -> run_one id) experiments;
      Microbench.run ()
  | [ "tables" ] -> List.iter (fun (id, _) -> run_one id) experiments
  | [ "bechamel" ] -> Microbench.run ()
  | ids -> List.iter run_one ids
