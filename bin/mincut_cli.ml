(* Command-line interface.

     mincut generate --family torus --size 8 -o net.graph
     mincut info net.graph
     mincut solve net.graph --algorithm approx --epsilon 0.3
     mincut solve --family gnp --size 256 --algorithm exact --show-side

   Graphs are stored in the light DIMACS dialect of
   [Mincut_graph.Dimacs]. *)

open Cmdliner
module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Dimacs = Mincut_graph.Dimacs
module Diameter = Mincut_graph.Diameter
module Bfs = Mincut_graph.Bfs
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Bitset = Mincut_util.Bitset
module Rng = Mincut_util.Rng
module Api = Mincut_core.Api
module Params = Mincut_core.Params

(* ---- graph construction -------------------------------------------- *)

(* a refused input, as the line the commands print for it *)
let error_line msg = "mincut: error: " ^ msg

(* a solver refuses an input it cannot answer (too few nodes, a
   disconnected graph) with Invalid_argument: report it as an error line
   and exit status 1, not a crash *)
let refusing f =
  match f () with
  | code -> code
  | exception Invalid_argument msg ->
      prerr_endline (error_line msg);
      1

let make_graph ~family ~size ~seed ~weight_max =
  let rng = Rng.create seed in
  let weights =
    if weight_max <= 1 then None else Some { Generators.wmin = 1; wmax = weight_max }
  in
  Generators.by_name ~rng ?weights ~name:family ~size () |> Result.map_error error_line

let families = Generators.family_names

(* ---- common options -------------------------------------------------- *)

let family_arg =
  let doc =
    "Graph family to generate. One of: " ^ String.concat ", " families ^ "."
  in
  Arg.(value & opt (some string) None & info [ "family" ] ~docv:"FAMILY" ~doc)

let size_arg =
  let doc = "Family size parameter (nodes, side length, or dimension)." in
  Arg.(value & opt int 64 & info [ "size" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for generators and randomized algorithms." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let weight_arg =
  let doc = "Draw integer edge weights uniformly from 1..$(docv) (1 = unweighted)." in
  Arg.(value & opt int 1 & info [ "weight-max" ] ~docv:"W" ~doc)

let file_arg =
  let doc = "Graph file (DIMACS dialect); omit to use --family." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let load_graph file family size seed weight_max =
  match (file, family) with
  | Some path, _ -> (
      try Ok (Dimacs.load path) with e -> Error (error_line (Printexc.to_string e)))
  | None, Some fam -> make_graph ~family:fam ~size ~seed ~weight_max
  | None, None -> Error (error_line "provide a graph FILE or --family")

(* ---- generate -------------------------------------------------------- *)

let generate_cmd =
  let out_arg =
    let doc = "Output path (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc)
  in
  let run family size seed weight_max out =
    match make_graph ~family ~size ~seed ~weight_max with
    | Error e ->
        prerr_endline e;
        1
    | Ok g -> (
        match out with
        | None ->
            print_string (Dimacs.to_string g);
            0
        | Some path ->
            Dimacs.save path g;
            Printf.printf "wrote %s (n=%d, m=%d)\n" path (Graph.n g) (Graph.m g);
            0)
  in
  let family_req =
    Arg.(required & opt (some string) None & info [ "family" ] ~docv:"FAMILY"
           ~doc:("Family: " ^ String.concat ", " families))
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a benchmark graph")
    Term.(const run $ family_req $ size_arg $ seed_arg $ weight_arg $ out_arg)

(* ---- info ------------------------------------------------------------ *)

let info_cmd =
  let run file family size seed weight_max =
    match load_graph file family size seed weight_max with
    | Error e ->
        prerr_endline e;
        1
    | Ok g ->
        refusing @@ fun () ->
        let connected = Bfs.is_connected g in
        (* solved before anything is printed, so a refusal prints nothing *)
        let truth =
          if connected && Graph.n g <= 400 then Some (Stoer_wagner.run g).Stoer_wagner.value
          else None
        in
        Printf.printf "nodes:      %d\n" (Graph.n g);
        Printf.printf "edges:      %d\n" (Graph.m g);
        Printf.printf "weight:     %d\n" (Graph.total_weight g);
        Printf.printf "connected:  %b\n" connected;
        if connected then begin
          Printf.printf "diameter:   %d\n" (Diameter.estimate g);
          let mindeg = Mincut_core.Exact.min_weighted_degree g in
          Printf.printf "min degree: %d (upper bound on the min cut)\n" mindeg;
          Option.iter
            (Printf.printf "min cut:    %d (Stoer-Wagner ground truth)\n")
            truth
        end;
        0
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Show basic statistics of a graph")
    Term.(const run $ file_arg $ family_arg $ size_arg $ seed_arg $ weight_arg)

(* ---- solve ------------------------------------------------------------ *)

let solve_cmd =
  let algorithm_arg =
    let doc = "Algorithm: exact, exact2 (2-respecting), approx, gk, or su." in
    Arg.(value & opt string "exact" & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc)
  in
  let epsilon_arg =
    let doc = "Approximation parameter for approx/gk/su." in
    Arg.(value & opt float 0.5 & info [ "epsilon" ] ~docv:"EPS" ~doc)
  in
  let trees_arg =
    let doc = "Tree-packing budget override." in
    Arg.(value & opt (some int) None & info [ "trees" ] ~docv:"T" ~doc)
  in
  let side_arg =
    let doc = "Print the node set of the cut side." in
    Arg.(value & flag & info [ "show-side" ] ~doc)
  in
  let breakdown_arg =
    let doc =
      "Print the round breakdown: $(b,tree) (span tree with provenance), \
       $(b,flat) (leaf steps), or $(b,json) (machine-readable span tree)."
    in
    Arg.(
      value
      & opt ~vopt:(Some "tree") (some string) None
      & info [ "breakdown" ] ~docv:"MODE" ~doc)
  in
  let check_arg =
    let doc = "Also compute ground truth with Stoer-Wagner and compare." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let certify_arg =
    let doc = "Run the distributed O(D)-round certification of the answer." in
    Arg.(value & flag & info [ "certify" ] ~doc)
  in
  let estimate_first_arg =
    let doc =
      "Run the sampling λ-estimate ladder first and cap the tree-packing \
       budget with its upper bound (exact algorithm only; the answer is \
       unchanged, the packing may be smaller)."
    in
    Arg.(value & flag & info [ "estimate-first" ] ~doc)
  in
  let run file family size seed weight_max algo epsilon trees show_side breakdown check certify estimate_first =
    match load_graph file family size seed weight_max with
    | Error e ->
        prerr_endline e;
        1
    | Ok g -> (
        let algorithm =
          match algo with
          | "exact" -> Ok Api.Exact_small_lambda
          | "exact2" -> Ok Api.Exact_two_respect
          | "approx" -> Ok (Api.Approx epsilon)
          | "gk" -> Ok (Api.Ghaffari_kuhn epsilon)
          | "su" -> Ok (Api.Su epsilon)
          | other -> Error (Printf.sprintf "unknown algorithm %S" other)
        in
        match algorithm with
        | Error e ->
            prerr_endline e;
            1
        | Ok algorithm ->
            let lambda_upper =
              if not estimate_first then None
              else begin
                let module E = Mincut_core.Sample_estimate in
                let est = Api.estimate ~seed g in
                Printf.printf
                  "estimate:  λ in [%d, %d] (point %d; %d levels x %d tests, \
                   %d rounds)\n"
                  est.E.lower est.E.upper est.E.estimate est.E.levels_tried
                  est.E.trials_per_level est.E.cost.Mincut_congest.Cost.rounds;
                E.tree_budget_hint est
              end
            in
            (* the solvers refuse inputs they cannot answer exactly (e.g. a
               weight past the packing's max_int / trees bound) with
               Invalid_argument: report it as an error, not a crash *)
            match
              Api.min_cut ~params:Params.fast ~algorithm ~seed ?lambda_upper
                ?trees g
            with
            | exception Invalid_argument msg ->
                prerr_endline (error_line msg);
                1
            | s ->
                Printf.printf "algorithm: %s\n" (Api.algorithm_name algorithm);
                Printf.printf "cut value: %d\n" s.Api.value;
                Printf.printf "rounds:    %d (simulated CONGEST)\n" s.Api.rounds;
                Printf.printf "verified:  %b\n" (Api.verify g s);
                if show_side then
                  Printf.printf "side:      {%s}\n"
                    (String.concat ", "
                       (List.map string_of_int (Bitset.to_list s.Api.side)));
                let breakdown_bad = ref false in
                (match breakdown with
                | None -> ()
                | Some "tree" -> Format.printf "%a@." Mincut_congest.Cost.pp s.Api.cost
                | Some "flat" ->
                    print_endline "round breakdown:";
                    List.iter
                      (fun (label, rounds) -> Printf.printf "  %8d  %s\n" rounds label)
                      s.Api.breakdown
                | Some "json" ->
                    (* print the span tree as one JSON line, but only after
                       proving it survives a parse + decode round trip — CI
                       leans on this as a serialization smoke test *)
                    let module Cost = Mincut_congest.Cost in
                    let module Json = Mincut_util.Json in
                    let line = Json.to_string (Cost.to_json s.Api.cost) in
                    let ok =
                      match Json.of_string line with
                      | Error _ -> false
                      | Ok j -> (
                          match Cost.of_json j with
                          | Error _ -> false
                          | Ok c -> Cost.equal c s.Api.cost)
                    in
                    if ok then print_endline line
                    else begin
                      prerr_endline "breakdown json failed to round-trip";
                      breakdown_bad := true
                    end
                | Some other ->
                    prerr_endline
                      (Printf.sprintf "unknown breakdown mode %S (tree|flat|json)" other);
                    breakdown_bad := true);
                if !breakdown_bad then 1
                else begin
                if check then begin
                  let truth = (Stoer_wagner.run g).Stoer_wagner.value in
                  Printf.printf "ground truth: %d (%s)\n" truth
                    (if truth = s.Api.value then "match"
                     else Printf.sprintf "ratio %.3f"
                            (float_of_int s.Api.value /. float_of_int truth))
                end;
                if not certify then 0
                else
                  (* certification floods a BFS tree, which a disconnected
                     graph refuses with Invalid_argument *)
                  match Mincut_core.Certificate.certify_summary g s with
                  | exception Invalid_argument msg ->
                      flush stdout;
                      prerr_endline (error_line msg);
                      1
                  | r ->
                      Printf.printf "certified: %b (recomputed %d, %d extra rounds)\n"
                        r.Mincut_core.Certificate.accepted r.Mincut_core.Certificate.recomputed
                        r.Mincut_core.Certificate.rounds;
                      0
                end)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Compute a minimum cut with the distributed algorithms")
    Term.(
      const run $ file_arg $ family_arg $ size_arg $ seed_arg $ weight_arg
      $ algorithm_arg $ epsilon_arg $ trees_arg $ side_arg $ breakdown_arg $ check_arg
      $ certify_arg $ estimate_first_arg)

(* ---- estimate --------------------------------------------------------- *)

let estimate_cmd =
  let trials_arg =
    let doc = "Connectivity tests per sampling level (default: 4·log₂n-ish)." in
    Arg.(value & opt (some int) None & info [ "trials" ] ~docv:"T" ~doc)
  in
  let check_arg =
    let doc = "Compare the bracket against Stoer-Wagner ground truth." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let breakdown_arg =
    let doc = "Print the ladder's scheduled span tree." in
    Arg.(value & flag & info [ "breakdown" ] ~doc)
  in
  let run file family size seed weight_max trials check breakdown =
    match load_graph file family size seed weight_max with
    | Error e ->
        prerr_endline e;
        1
    | Ok g ->
        refusing @@ fun () ->
        let module E = Mincut_core.Sample_estimate in
        let r = Api.estimate ~seed ?trials g in
        Printf.printf "estimate:  %d\n" r.E.estimate;
        Printf.printf "bracket:   [%d, %d] (factor %d)\n" r.E.lower r.E.upper
          r.E.factor;
        Printf.printf "ladder:    %d levels x %d tests%s\n" r.E.levels_tried
          r.E.trials_per_level
        (if r.E.saturated then " (saturated: no disconnection found)" else "");
        Printf.printf "rounds:    %d (scheduled CONGEST)\n"
          r.E.cost.Mincut_congest.Cost.rounds;
        if breakdown then
          Format.printf "%a@." Mincut_congest.Cost.pp r.E.cost;
        if check && Graph.n g <= 400 then begin
          let truth = (Stoer_wagner.run g).Stoer_wagner.value in
          let inside = r.E.lower <= truth && truth <= r.E.upper in
          Printf.printf "ground truth: %d (%s)\n" truth
            (if inside then "inside bracket" else "OUTSIDE BRACKET");
          if not inside then exit 1
        end;
        0
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:
         "Bracket the min cut with the geometric edge-sampling ladder \
          (O(log n)-factor estimate from O(log^2 n) connectivity tests)")
    Term.(
      const run $ file_arg $ family_arg $ size_arg $ seed_arg $ weight_arg
      $ trials_arg $ check_arg $ breakdown_arg)

(* ---- trace ------------------------------------------------------------ *)

let trace_cmd =
  let program_arg =
    let doc = "Program to trace: bfs, broadcast, upcast, or mst." in
    Arg.(value & opt string "bfs" & info [ "program" ] ~docv:"PROG" ~doc)
  in
  let bar width peak v =
    if peak = 0 then ""
    else String.make (max 0 (v * width / peak)) '#'
  in
  let run file family size seed weight_max prog =
    match load_graph file family size seed weight_max with
    | Error e ->
        prerr_endline e;
        1
    | Ok g -> (
        refusing @@ fun () ->
        let module P = Mincut_congest.Primitives in
        let module N = Mincut_congest.Network in
        let audit =
          match prog with
          | "bfs" -> Mincut_congest.Cost.leaf_audit (snd (P.bfs_tree g ~root:0))
          | "broadcast" ->
              let tree, _ = P.bfs_tree g ~root:0 in
              Mincut_congest.Cost.leaf_audit
                (snd (P.broadcast_items g ~tree ~items:(Array.init 16 (fun i -> i))))
          | "upcast" ->
              let tree, _ = P.bfs_tree g ~root:0 in
              Mincut_congest.Cost.leaf_audit
                (snd
                   (P.upcast_distinct g ~tree
                      ~initial:(Array.init (Graph.n g) (fun v -> [ v mod 31 ]))))
          | "mst" ->
              let r = Mincut_mst.Boruvka_dist.run g in
              Printf.printf "distributed MST: %d phases, %d rounds total
"
                r.Mincut_mst.Boruvka_dist.phases
                r.Mincut_mst.Boruvka_dist.cost.Mincut_congest.Cost.rounds;
              Format.printf "%a@." Mincut_congest.Cost.pp
                r.Mincut_mst.Boruvka_dist.cost;
              None
          | other ->
              prerr_endline (Printf.sprintf "unknown program %S" other);
              None
        in
        match audit with
        | None -> 0
        | Some a ->
            Printf.printf
              "rounds %d, messages %d, words %d, max payload %d words
"
              a.N.rounds a.N.total_messages a.N.total_words a.N.max_words;
            let peak = Array.fold_left max 0 a.N.messages_per_round in
            print_endline "per-round congestion (messages in flight):";
            Array.iteri
              (fun r v -> Printf.printf "  r%-3d %6d %s
" r v (bar 40 peak v))
              a.N.messages_per_round;
            0)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a message-level program and show its congestion profile")
    Term.(
      const run $ file_arg $ family_arg $ size_arg $ seed_arg $ weight_arg $ program_arg)

(* ---- delta ------------------------------------------------------------ *)

let delta_cmd =
  let module Delta = Mincut_graph.Delta in
  let module Handle = Mincut_graph.Handle in
  let module Incremental = Mincut_core.Incremental in
  let stream_arg =
    let doc =
      "Replay the update stream in $(docv) (one op per line: $(b,add u v w), \
       $(b,remove u v), $(b,reweight u v w), $(b,merge u v), \
       $(b,split v w x1,x2,..); $(b,#) comments)."
    in
    Arg.(value & opt (some string) None & info [ "stream" ] ~docv:"FILE" ~doc)
  in
  let ops_arg =
    let doc = "Number of deltas to generate when no --stream is given." in
    Arg.(value & opt int 1000 & info [ "ops" ] ~docv:"K" ~doc)
  in
  let emit_arg =
    let doc =
      "Print the generated stream (replayable with --stream) and exit \
       without solving."
    in
    Arg.(value & flag & info [ "emit" ] ~doc)
  in
  let check_arg =
    let doc =
      "Verify every incremental λ against a from-scratch Stoer-Wagner solve \
       of the live graph (slow; exits 1 on any mismatch)."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let trace_arg =
    let doc = "Print one line per applied delta." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let run file family size seed weight_max stream ops emit check trace =
    match load_graph file family size seed weight_max with
    | Error e ->
        prerr_endline e;
        1
    | Ok g -> (
        let ops_list =
          match stream with
          | Some path -> Delta.read_stream path
          | None ->
              let rng = Rng.create (seed + 1) in
              let wmax = max 1 weight_max in
              Ok (Generators.delta_stream ~rng ~wmax ~base:g ops)
        in
        match ops_list with
        | Error e ->
            prerr_endline e;
            1
        | Ok ops_list ->
            if emit then begin
              List.iter (fun op -> print_endline (Delta.to_line op)) ops_list;
              0
            end
            else
              (* a session re-solves its live graph, which needs n >= 2:
                 report a smaller graph as an error, not a crash *)
              match Api.open_session ~params:Params.fast g with
              | exception Invalid_argument msg ->
                  prerr_endline (error_line msg);
                  1
              | session ->
                  Printf.printf "base:      n=%d m=%d lambda=%d\n" (Graph.n g)
                    (Graph.m g) (Api.session_lambda session);
                  let bad = ref 0 and applied = ref 0 and rejected = ref 0 in
                  List.iter
                    (fun op ->
                      match Api.apply_delta session op with
                      | Error e ->
                          incr rejected;
                          if trace then
                            Printf.printf "  REJECT %-24s %s\n" (Delta.to_line op) e
                      | Ok (outcome, answer) ->
                          incr applied;
                          if trace then
                            Printf.printf "  v%-5d %-24s lambda=%d mode=%s\n"
                              outcome.Handle.version (Delta.to_line op)
                              answer.Api.lambda
                              (Incremental.mode_name answer.Api.mode);
                          if check then begin
                            let live = Api.session_graph session in
                            let truth =
                              Stoer_wagner.min_cut_value live
                            in
                            if truth <> answer.Api.lambda then begin
                              incr bad;
                              Printf.printf
                                "  MISMATCH at v%d (%s): incremental %d, \
                                 from-scratch %d\n"
                                outcome.Handle.version (Delta.to_line op)
                                answer.Api.lambda truth
                            end
                          end)
                    ops_list;
                  let st = Api.session_stats session in
                  let h = Api.session_handle session in
                  Printf.printf "applied:   %d deltas (%d rejected)\n" !applied
                    !rejected;
                  Printf.printf "final:     v%d n=%d channels=%d lambda=%d\n"
                    (Handle.version h) (Handle.n h) (Handle.channels h)
                    (Api.session_lambda session);
                  Printf.printf "digest:    %s\n"
                    (Mincut_util.Hash.to_hex (Handle.digest h));
                  Printf.printf
                    "tiers:     reused=%d cert=%d full=%d (fallback rate %.3f)\n"
                    st.Incremental.reused st.Incremental.cert_solves
                    st.Incremental.full_resolves
                    (Incremental.fallback_rate st);
                  if check then
                    Printf.printf "check:     %s\n"
                      (if !bad = 0 then "every λ matches from-scratch"
                       else Printf.sprintf "%d MISMATCHES" !bad);
                  if !bad > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "delta"
       ~doc:
         "Replay an update stream through the incremental min-cut session \
          (versioned handle + exact re-solve of the live graph)")
    Term.(
      const run $ file_arg $ family_arg $ size_arg $ seed_arg $ weight_arg
      $ stream_arg $ ops_arg $ emit_arg $ check_arg $ trace_arg)

(* ---- serve ------------------------------------------------------------ *)

let serve_cmd =
  let socket_arg =
    let doc =
      "Listen on a Unix-domain socket at $(docv) instead of stdin/stdout."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let metrics_arg =
    let doc =
      "Append a JSON-lines metrics snapshot to $(docv) when the server exits \
       (readable with $(b,mincut stats))."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"PATH" ~doc)
  in
  let workers_arg =
    let doc = "Worker pool width (1 = sequential; default: per machine)." in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"W" ~doc)
  in
  let cache_entries_arg =
    let doc = "Result cache bound: resident entries." in
    Arg.(value & opt int 4096 & info [ "cache-entries" ] ~docv:"N" ~doc)
  in
  let cache_cost_arg =
    let doc = "Result cache bound: total footprint in words." in
    Arg.(value & opt int 16_777_216 & info [ "cache-cost" ] ~docv:"WORDS" ~doc)
  in
  let run socket metrics_path workers cache_entries cache_cost =
    let module Service = Mincut_serve.Service in
    let module Server = Mincut_serve.Server in
    let module Metrics = Mincut_serve.Metrics in
    let config =
      {
        Service.default_config with
        Service.cache_entries;
        cache_cost;
        workers =
          (match workers with
          | Some w -> w
          | None -> Service.default_config.Service.workers);
      }
    in
    let service = Service.create ~config () in
    let result =
      try
        (match socket with
        | None -> Server.run_stdio service
        | Some path ->
            Printf.eprintf "serving on %s (SHUTDOWN to stop)\n%!" path;
            Server.run_socket service ~path);
        0
      with e ->
        Printf.eprintf "serve: %s\n" (Printexc.to_string e);
        1
    in
    (match metrics_path with
    | None -> ()
    | Some path ->
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (Metrics.to_json_line (Service.metrics service));
            output_char oc '\n'));
    result
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived solver service (line protocol over stdio or a \
          Unix socket)")
    Term.(
      const run $ socket_arg $ metrics_arg $ workers_arg $ cache_entries_arg
      $ cache_cost_arg)

(* ---- stats ------------------------------------------------------------- *)

let stats_cmd =
  let file_arg =
    let doc = "Metrics JSON-lines file written by $(b,mincut serve --metrics)." in
    Arg.(value & pos 0 string "mincut-metrics.jsonl" & info [] ~docv:"FILE" ~doc)
  in
  let json_arg =
    let doc = "Echo the raw JSON line instead of the pretty table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run file json =
    let module Metrics = Mincut_serve.Metrics in
    match In_channel.with_open_text file In_channel.input_lines with
    | exception Sys_error e ->
        prerr_endline e;
        1
    | lines -> (
        match List.rev (List.filter (fun l -> String.trim l <> "") lines) with
        | [] ->
            Printf.eprintf "%s: no metrics snapshots\n" file;
            1
        | last :: older ->
            if json then begin
              print_endline last;
              0
            end
            else (
              match Metrics.snapshot_of_json_line last with
              | Error e ->
                  Printf.eprintf "%s: %s\n" file e;
                  1
              | Ok snap ->
                  Format.printf "%a@." Metrics.pp_snapshot snap;
                  if older <> [] then
                    Format.printf "(%d older snapshot%s in %s)@."
                      (List.length older)
                      (if List.length older = 1 then "" else "s")
                      file;
                  0))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Pretty-print the latest metrics snapshot of a serve run")
    Term.(const run $ file_arg $ json_arg)

(* ---- main -------------------------------------------------------------- *)

let () =
  let doc = "distributed minimum cut (Nanongkai, PODC 2014) -- simulator and tools" in
  let info = Cmd.info "mincut" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd;
            info_cmd;
            solve_cmd;
            estimate_cmd;
            delta_cmd;
            trace_cmd;
            serve_cmd;
            stats_cmd;
          ]))
