(* mincut_lint — static analysis and conformance driver.

     mincut_lint ast                # static analysis of lib/ bin/
     mincut_lint ast --inject race  # prove an analyzer is live
     mincut_lint certify --quick    # conformance certifier (CI form)
     mincut_lint certify --inject order   # prove the certifier is live

   The [ast] subcommand ([Mincut_analysis.Astlint]) parses every [.ml]
   with the compiler's parser and runs the analyzers (hazard rules,
   effect classes, allocation budgets, static domain races, exception
   boundaries, resource brackets) against [.mincut-ast-allow].  The
   [certify] subcommand is the one runtime conformance driver
   ([Mincut_analysis.Certify]): deterministic replays of the BFS
   program and the exact, approx and 1-respecting pipelines, shadow
   sanitizers, span-tree laws (the paper's five-step shape included),
   asymptotic envelope fits and the lock-order registry, plus the two
   serve-level checks defined here.  Both take [--inject] to seed a
   defect that must be caught.  Exit status: 0 clean, 1 findings or a
   failed check (or an injected defect caught), 2 usage error, 3 an
   injected defect missed — the analyzer has rotted. *)

open Cmdliner
module Lint = Mincut_analysis.Lint
module Astlint = Mincut_analysis.Astlint
module Allocheck = Mincut_analysis.Allocheck
module Exnflow = Mincut_analysis.Exnflow
module Resguard = Mincut_analysis.Resguard
module Replay = Mincut_analysis.Replay
module Certify = Mincut_analysis.Certify
module Json = Mincut_util.Json
module Rng = Mincut_util.Rng
module Generators = Mincut_graph.Generators
module Api = Mincut_core.Api
module Service = Mincut_serve.Service
module Request = Mincut_serve.Request

let default_ast_allow_file = ".mincut-ast-allow"

(* ---- ast subcommand ---------------------------------------------------- *)

let report_ast_human (r : Astlint.report) findings unused =
  Format.printf "%a" Lint.pp_findings findings;
  List.iter
    (fun entry ->
      Format.printf "note: unused allowlist entry %S — delete it@." entry)
    unused;
  Format.printf "ast: %d files parsed, %d parse error%s@." (List.length r.Astlint.files)
    (List.length r.Astlint.parse_errors)
    (if List.length r.Astlint.parse_errors = 1 then "" else "s");
  Format.printf "ast: effects:%s@."
    (String.concat ""
       (List.filter_map
          (fun (k, n) ->
            if n = 0 then None else Some (Printf.sprintf " %d %s" n k))
          r.Astlint.effect_classes));
  List.iter
    (fun (t : Allocheck.target) ->
      Format.printf "ast: alloc: %s — %d site%s of budget %d@." t.Allocheck.tid
        (List.length t.Allocheck.sites)
        (if List.length t.Allocheck.sites = 1 then "" else "s")
        t.Allocheck.budget)
    r.Astlint.alloc_targets;
  Format.printf "ast: exnflow: %d defs raise;%s@."
    r.Astlint.exn_summary.Exnflow.defs_raising
    (String.concat ""
       (List.map
          (fun (p, n) -> Printf.sprintf " %s(%d)" p n)
          r.Astlint.exn_summary.Exnflow.policies));
  Format.printf "ast: resguard: %d/%d acquisitions bracketed@."
    r.Astlint.resource_summary.Resguard.bracketed
    r.Astlint.resource_summary.Resguard.acquisitions_checked;
  let nf = List.length findings in
  if nf = 0 then Format.printf "mincut_lint ast: clean@."
  else Format.printf "mincut_lint ast: %d finding%s@." nf (if nf = 1 then "" else "s")

let run_ast paths allow_file json inject =
  let paths = if paths = [] then [ "lib"; "bin" ] else paths in
  match List.find_opt (fun p -> not (Sys.file_exists p)) paths with
  | Some missing ->
      Printf.eprintf "mincut_lint ast: no such path %S\n" missing;
      2
  | None -> (
      let allow =
        match allow_file with
        | Some f -> Lint.Allow.load ~known:Astlint.known_rule f
        | None ->
            if Sys.file_exists default_ast_allow_file then
              Lint.Allow.load ~known:Astlint.known_rule default_ast_allow_file
            else Ok Lint.Allow.empty
      in
      match allow with
      | Error e ->
          Printf.eprintf "mincut_lint ast: allowlist: %s\n" e;
          2
      | Ok allow -> (
          (* wall-time of the analyzers themselves (parse + call graph +
             every pass), printed so lint-job runtime creep is visible *)
          let t0 = Unix.gettimeofday () in
          let elapsed_ms () = (Unix.gettimeofday () -. t0) *. 1000.0 in
          let finish r =
            let elapsed_ms = elapsed_ms () in
            let raw = Astlint.findings r in
            let findings = Lint.Allow.filter allow raw in
            let unused = Lint.Allow.unused allow raw in
            if json then
              print_endline
                (Json.to_string
                   (match Astlint.to_json r with
                   | Json.Obj fields ->
                       Json.Obj
                         (fields
                         @ [
                             ("elapsed_ms", Json.Float elapsed_ms);
                             ( "allow_unused",
                               Json.List
                                 (List.map (fun s -> Json.String s) unused) );
                             ( "status",
                               Json.String
                                 (if findings = [] then "clean" else "dirty") );
                           ])
                   | other -> other))
            else begin
              report_ast_human r findings unused;
              Format.printf "ast: analyzers ran in %.0f ms@." elapsed_ms
            end;
            findings
          in
          match inject with
          | None -> if finish (Astlint.run paths) = [] then 0 else 1
          | Some seed -> (
              match Astlint.run_inject ~seed paths with
              | Error e ->
                  Printf.eprintf "mincut_lint ast: %s\n" e;
                  2
              | Ok (r, rule) ->
                  let findings = finish r in
                  let caught =
                    List.exists (fun (f : Lint.finding) -> f.Lint.rule = rule) findings
                  in
                  if caught then begin
                    Format.printf
                      "mincut_lint ast: injected %s defect caught (%s)@." seed
                      rule;
                    1
                  end
                  else begin
                    Format.printf
                      "mincut_lint ast: injected %s defect NOT caught — the %s \
                       analyzer has rotted@."
                      seed rule;
                    3
                  end)))

let ast_cmd =
  let paths_arg =
    let doc = "Files or directories to analyze (default: lib bin)." in
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let allow_arg =
    let doc =
      "Allowlist file of accepted findings, one 'rule path[:line]' per line \
       (default: " ^ default_ast_allow_file ^ " when present)."
    in
    Arg.(value & opt (some string) None & info [ "allow" ] ~docv:"FILE" ~doc)
  in
  let json_arg =
    let doc = "Emit one machine-readable JSON report on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let inject_arg =
    let doc =
      "Append one deliberately defective pseudo-module (nondet, alloc, race, \
       exnleak or fdleak) before analysis; exits 1 if the matching analyzer \
       catches it, 3 if it does not — proving the analyzers are live."
    in
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SEED" ~doc)
  in
  let doc =
    "Static analysis: parses every .ml with the compiler's parser and runs \
     the hazard rules and the call-graph analyzers (effect classes, \
     allocation budgets, static domain races, exception boundaries, \
     resource brackets)"
  in
  Cmd.v
    (Cmd.info "ast" ~doc)
    Term.(const run_ast $ paths_arg $ allow_arg $ json_arg $ inject_arg)

(* ---- certify subcommand ----------------------------------------------- *)

(* The serve-level checks, joined to the Certify report via its [?extra]
   hook (they drive Mincut_serve, which sits above the analysis library,
   so they cannot live in Certify itself). *)

(* One request through a fresh service, twice: the second answer must
   come from the result cache and be span-tree-bit-identical to the
   cold solve. *)
let serve_warm_cold_check () =
  Certify.per_workload "replay: serve-warm-cold" (fun g ->
      let service = Service.create () in
      let req = Request.make ~seed:0 g in
      let cold = Service.solve service req in
      let warm = Service.solve service req in
      if not warm.Request.cached then [ "second solve was not served from the cache" ]
      else if cold.Request.cached then [ "first solve claimed to be cached" ]
      else Replay.diff_summary cold.Request.summary warm.Request.summary)

(* Replay one seeded delta script through a Service session twice — once
   applying deltas only, once also compacting the handle every few ops —
   and demand every per-delta λ, every solved summary and every cache key
   come out bit-identical.  [Handle.compact] is specified observationally
   invisible (digest, version, generation, anchors all survive), so any
   drift here is a real defect in the delta layer. *)
let delta_compact_check () =
  Certify.per_workload "serve: delta-then-solve = compact-then-solve (bit-identical)"
    (fun g ->
      let ops = Generators.delta_stream ~rng:(Rng.create 77) ~wmax:3 ~base:g 40 in
      let nops = List.length ops in
      let solve_points = [ nops / 3; (2 * nops) / 3; nops - 1 ] in
      let errors = ref [] in
      (* one replay: per-delta (version, λ) trace + responses at the
         solve points; [compact_every = 0] never compacts *)
      let replay ~compact_every =
        let svc =
          Service.create
            ~config:{ Service.default_config with Service.workers = 1 }
            ()
        in
        ignore (Service.session_open svc "s" g);
        let trace = ref [] and solved = ref [] in
        List.iteri
          (fun i op ->
            (match Service.session_delta svc "s" op with
            | Ok (_, outcome, answer) ->
                trace :=
                  (outcome.Mincut_graph.Handle.version, answer.Api.lambda)
                  :: !trace
            | Error e -> errors := ("delta rejected: " ^ e) :: !errors);
            if compact_every > 0 && i mod compact_every = compact_every - 1 then
              ignore (Service.session_compact svc "s");
            if List.mem i solve_points then
              match
                Service.session_solve svc "s" ~algorithm:Api.Exact_small_lambda
                  ~seed:0 ~trees:None
              with
              | Ok resp -> solved := resp :: !solved
              | Error e -> errors := ("solve failed: " ^ e) :: !errors)
          ops;
        (List.rev !trace, List.rev !solved)
      in
      let trace_a, solved_a = replay ~compact_every:0 in
      let trace_b, solved_b = replay ~compact_every:7 in
      let diffs =
        if List.length solved_a <> List.length solved_b then [ "solve counts differ" ]
        else
          Replay.diff_named ~name:"per-delta (version, λ) trace"
            ~equal:(List.equal (fun (v1, l1) (v2, l2) -> v1 = v2 && l1 = l2))
            trace_a trace_b
          @ List.concat
              (List.map2
                 (fun (a : Request.response) (b : Request.response) ->
                   List.concat
                     [
                       Replay.diff_summary a.Request.summary b.Request.summary;
                       Replay.diff_named ~name:"cache key" ~equal:String.equal
                         a.Request.key b.Request.key;
                       Replay.diff_named ~name:"cached flag" ~equal:Bool.equal
                         a.Request.cached b.Request.cached;
                     ])
                 solved_a solved_b)
      in
      List.rev !errors @ diffs)

let report_certify_human (r : Certify.report) =
  List.iter
    (fun (c : Certify.check) ->
      if c.Certify.ok then Format.printf "certify ok: %s@." c.Certify.name
      else begin
        Format.printf "certify FAILED: %s@." c.Certify.name;
        List.iter (fun d -> Format.printf "  %s@." d) c.Certify.details
      end)
    r.Certify.checks;
  let bad =
    List.length (List.filter (fun (c : Certify.check) -> not c.Certify.ok) r.Certify.checks)
  in
  if bad = 0 then
    Format.printf "mincut_lint certify: certified (%d checks)@."
      (List.length r.Certify.checks)
  else
    Format.printf "mincut_lint certify: %d check%s failed@." bad
      (if bad = 1 then "" else "s")

let run_certify quick json slack inject =
  let defect = Option.map Certify.defect_of_name inject in
  match (inject, defect) with
  | Some name, Some None ->
      Printf.eprintf
        "mincut_lint certify: unknown defect %S (expected order, span or \
         payload)\n"
        name;
      2
  | _ -> (
      let extra () = [ serve_warm_cold_check (); delta_compact_check () ] in
      let r = Certify.run ~quick ?slack ?inject:(Option.join defect) ~extra () in
      if json then print_endline (Json.to_string (Certify.to_json r))
      else report_certify_human r;
      (* the ast --inject contract: a seeded defect must fail its check *)
      match inject with
      | None -> if r.Certify.ok then 0 else 1
      | Some name when r.Certify.ok ->
          Format.printf
            "mincut_lint certify: injected %s defect NOT caught — the \
             certifier has rotted@."
            name;
          3
      | Some name ->
          Format.printf "mincut_lint certify: injected %s defect caught@." name;
          1)

let certify_cmd =
  let quick_arg =
    let doc = "Shrink the scaling ladder (drop n = 128) — the CI form." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let json_arg =
    let doc = "Emit one machine-readable JSON report on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let slack_arg =
    let doc =
      "Multiplicative slack for the asymptotic envelope fits (default "
      ^ string_of_float Mincut_analysis.Scaling.default_slack
      ^ ")."
    in
    Arg.(value & opt (some float) None & info [ "slack" ] ~docv:"FACTOR" ~doc)
  in
  let inject_arg =
    let doc =
      "Seed one deliberate defect (order, span or payload) and run only the \
       analyzer that must catch it; exits 1 if it is caught, 3 if it is not \
       — proving the certifier is live."
    in
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"DEFECT" ~doc)
  in
  let doc =
    "Conformance certifier: deterministic replays, shadow sanitizers, \
     span-tree invariant verification, asymptotic envelope fits and the \
     lock-order registry"
  in
  Cmd.v
    (Cmd.info "certify" ~doc)
    Term.(const run_certify $ quick_arg $ json_arg $ slack_arg $ inject_arg)

let cmd =
  let doc = "static analysis and conformance certification for the mincut repo" in
  Cmd.group (Cmd.info "mincut_lint" ~version:"1.0.0" ~doc) [ ast_cmd; certify_cmd ]

let () = exit (Cmd.eval' cmd)
