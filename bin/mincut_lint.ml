(* mincut_lint — static analysis and conformance audit driver.

     mincut_lint                    # replay conformance
     mincut_lint --json             # machine-readable report
     mincut_lint ast                # static analysis of lib/ bin/
     mincut_lint ast --inject race  # prove an analyzer is live
     mincut_lint certify --quick    # CONGEST-model certifier (CI form)
     mincut_lint certify --inject order   # prove the certifier is live

   The bare command is the deterministic-replay conformance pass: it
   runs the BFS message program, the exact, approx and 1-respecting
   pipelines and a warm-vs-cold serve pass twice each on small
   workloads and diffs the full execution audits — any hidden
   nondeterminism fails the run.  The [ast] subcommand
   ([Mincut_analysis.Astlint]) parses every [.ml] with the compiler's
   parser and runs the analyzers (hazard rules, effect classes,
   allocation budgets, static domain races, exception boundaries,
   resource brackets) against [.mincut-ast-allow]; [--inject SEED]
   seeds a defect that must be caught (exit 1 caught, 3 rotted).  The
   [certify] subcommand drives the three-analyzer certification suite
   ([Mincut_analysis.Certify]): shadow sanitizers, span-tree invariant
   verification and asymptotic envelope fits.  Exit status: 0 clean,
   1 findings or replay/certification failure, 2 usage error. *)

open Cmdliner
module Lint = Mincut_analysis.Lint
module Astlint = Mincut_analysis.Astlint
module Allocheck = Mincut_analysis.Allocheck
module Exnflow = Mincut_analysis.Exnflow
module Resguard = Mincut_analysis.Resguard
module Replay = Mincut_analysis.Replay
module Certify = Mincut_analysis.Certify
module Lockcheck = Mincut_parallel.Lockcheck
module Json = Mincut_util.Json
module Rng = Mincut_util.Rng
module Bitset = Mincut_util.Bitset
module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Tree = Mincut_graph.Tree
module Mst_seq = Mincut_graph.Mst_seq
module Primitives = Mincut_congest.Primitives
module Api = Mincut_core.Api
module One_respect = Mincut_core.One_respect
module Params = Mincut_core.Params
module Service = Mincut_serve.Service
module Request = Mincut_serve.Request

let default_ast_allow_file = ".mincut-ast-allow"

(* ---- replay pass ------------------------------------------------------ *)

let diff_int name a b =
  if a = b then [] else [ Printf.sprintf "%s: %d vs %d" name a b ]

let diff_breakdown a b =
  Replay.diff_named ~name:"breakdown"
    ~equal:(List.equal (fun (la, ra) (lb, rb) -> String.equal la lb && ra = rb))
    a b

let diff_summary (a : Api.summary) (b : Api.summary) =
  List.concat
    [
      diff_int "value" a.Api.value b.Api.value;
      diff_int "rounds" a.Api.rounds b.Api.rounds;
      Replay.diff_named ~name:"side" ~equal:Bitset.equal a.Api.side b.Api.side;
      diff_breakdown a.Api.breakdown b.Api.breakdown;
      Replay.diff_named ~name:"span tree (provenance included)"
        ~equal:Mincut_congest.Cost.equal a.Api.cost b.Api.cost;
    ]

let diff_one_respect (a : One_respect.result) (b : One_respect.result) =
  List.concat
    [
      diff_int "best_value" a.One_respect.best_value b.One_respect.best_value;
      diff_int "best_node" a.One_respect.best_node b.One_respect.best_node;
      Replay.diff_named ~name:"cuts" ~equal:(Array.for_all2 Int.equal)
        a.One_respect.cuts b.One_respect.cuts;
      diff_int "cost.rounds" a.One_respect.cost.Mincut_congest.Cost.rounds
        b.One_respect.cost.Mincut_congest.Cost.rounds;
      diff_breakdown
        (Mincut_congest.Cost.breakdown a.One_respect.cost)
        (Mincut_congest.Cost.breakdown b.One_respect.cost);
      Replay.diff_named ~name:"span tree (provenance included)"
        ~equal:Mincut_congest.Cost.equal a.One_respect.cost b.One_respect.cost;
    ]

(* The paper structures Theorem 2.1 as five numbered steps; the span
   tree must expose exactly that shape, with every phase carrying a
   provenance tag.  Checked per workload, independent of replay. *)
let check_phase_structure (r : One_respect.result) =
  let module Cost = Mincut_congest.Cost in
  let spans = r.One_respect.cost.Cost.spans in
  let expected =
    [ "Step 1: "; "Step 2: "; "Step 3: "; "Step 4: "; "Step 5: " ]
  in
  let prefix p s =
    String.length s >= String.length p && String.equal (String.sub s 0 (String.length p)) p
  in
  let shape_errors =
    if List.length spans <> 5 then
      [ Printf.sprintf "expected 5 top-level phase spans, got %d" (List.length spans) ]
    else
      List.concat
        (List.map2
           (fun want (s : Cost.span) ->
             let errs = ref [] in
             if not (prefix want s.Cost.label) then
               errs :=
                 Printf.sprintf "phase %S does not start with %S" s.Cost.label want
                 :: !errs;
             if s.Cost.children = [] then
               errs := Printf.sprintf "phase %S has no children" s.Cost.label :: !errs;
             !errs)
           expected spans)
  in
  let round_errors =
    let total = List.fold_left (fun acc (s : Cost.span) -> acc + s.Cost.rounds) 0 spans in
    if total = r.One_respect.cost.Cost.rounds then []
    else
      [ Printf.sprintf "phase rounds sum %d <> total %d" total
          r.One_respect.cost.Cost.rounds ]
  in
  shape_errors @ round_errors

let workloads () =
  [
    ("torus4", Generators.torus 4 4);
    ("grid5", Generators.grid 5 5);
    ("gnp24", Generators.gnp_connected ~rng:(Rng.create 12) 24 0.3);
  ]

type replay_report = { check : string; ok : bool; diffs : string list }

let replay_checks () =
  List.concat_map
    (fun (wname, g) ->
      [
        ( Printf.sprintf "bfs-audit/%s" wname,
          fun () ->
            Replay.check
              ~run:(fun () ->
                let _, _, audit = Primitives.bfs_tree_audited g ~root:0 in
                audit)
              ~diff:Replay.diff_audits
            |> Result.map (fun _ -> ()) );
        ( Printf.sprintf "exact/%s" wname,
          fun () ->
            Replay.check
              ~run:(fun () ->
                Api.min_cut ~params:Params.fast
                  ~algorithm:Api.Exact_small_lambda ~seed:0 g)
              ~diff:diff_summary
            |> Result.map (fun _ -> ()) );
        ( Printf.sprintf "one-respect/%s" wname,
          fun () ->
            let tree = Tree.of_edge_ids g ~root:0 (Mst_seq.kruskal g) in
            Replay.check
              ~run:(fun () -> Api.one_respecting_cut ~params:Params.fast g tree)
              ~diff:diff_one_respect
            |> Result.map (fun _ -> ()) );
        ( Printf.sprintf "approx/%s" wname,
          fun () ->
            Replay.check
              ~run:(fun () ->
                Api.min_cut ~params:Params.fast ~algorithm:(Api.Approx 0.5)
                  ~seed:0 g)
              ~diff:diff_summary
            |> Result.map (fun _ -> ()) );
        ( Printf.sprintf "serve-warm-cold/%s" wname,
          fun () ->
            (* one request through a fresh service, twice: the second
               answer must come from the result cache and be certified
               span-tree-bit-identical to the cold solve *)
            let service = Service.create () in
            let req = Request.make ~seed:0 g in
            let cold = Service.solve service req in
            let warm = Service.solve service req in
            if not warm.Request.cached then
              Error [ "second solve was not served from the cache" ]
            else if cold.Request.cached then
              Error [ "first solve claimed to be cached" ]
            else begin
              match
                diff_summary cold.Request.summary warm.Request.summary
              with
              | [] -> Ok ()
              | diffs -> Error diffs
            end );
        ( Printf.sprintf "phase-structure/%s" wname,
          fun () ->
            let tree = Tree.of_edge_ids g ~root:0 (Mst_seq.kruskal g) in
            let r = Api.one_respecting_cut ~params:Params.fast g tree in
            match check_phase_structure r with
            | [] -> Ok ()
            | errs -> Error errs );
      ])
    (workloads ())

let run_replay () =
  List.map
    (fun (check, run) ->
      match run () with
      | Ok () -> { check; ok = true; diffs = [] }
      | Error diffs -> { check; ok = false; diffs }
      | exception e ->
          { check; ok = false; diffs = [ "raised " ^ Printexc.to_string e ] })
    (replay_checks ())

(* ---- reporting -------------------------------------------------------- *)

let lockcheck_json () =
  let kind_name = function
    | Lockcheck.Reentrancy -> "reentrancy"
    | Lockcheck.Order_inversion -> "order-inversion"
  in
  Json.List
    (List.map
       (fun (v : Lockcheck.violation) ->
         Json.Obj
           [
             ("kind", Json.String (kind_name v.Lockcheck.kind));
             ("domain", Json.Int v.Lockcheck.domain);
             ("acquiring", Json.String v.Lockcheck.acquiring);
             ("acquiring_order", Json.Int v.Lockcheck.acquiring_order);
             ( "held",
               Json.List
                 (List.map
                    (fun (name, rank) ->
                      Json.Obj
                        [
                          ("lock", Json.String name); ("rank", Json.Int rank);
                        ])
                    v.Lockcheck.held) );
           ])
       (Lockcheck.violations ()))

let report_json replays =
  Json.Obj
    [
      ("lockcheck", lockcheck_json ());
      ( "replay",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("check", Json.String r.check);
                   ("ok", Json.Bool r.ok);
                   ("diffs", Json.List (List.map (fun d -> Json.String d) r.diffs));
                 ])
             replays) );
      ( "status",
        Json.String
          (if List.for_all (fun r -> r.ok) replays then "clean" else "dirty")
      );
    ]

let report_human replays =
  List.iter
    (fun r ->
      if r.ok then Format.printf "replay ok: %s@." r.check
      else begin
        Format.printf "replay FAILED: %s@." r.check;
        List.iter (fun d -> Format.printf "  %s@." d) r.diffs
      end)
    replays;
  let bad = List.length (List.filter (fun r -> not r.ok) replays) in
  if bad = 0 then
    Format.printf "mincut_lint: clean (%d replay checks)@." (List.length replays)
  else
    Format.printf "mincut_lint: %d replay failure%s@." bad
      (if bad = 1 then "" else "s")

(* ---- command ---------------------------------------------------------- *)

let run json =
  let replays = run_replay () in
  if json then print_endline (Json.to_string (report_json replays))
  else report_human replays;
  if List.for_all (fun r -> r.ok) replays then 0 else 1

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

(* Serve-level certification check, joined to the Certify report via its
   [?extra] hook (it drives Mincut_serve, which sits above the analysis
   library, so it cannot live in Certify itself): replay one seeded
   delta script through a Service session twice — once applying deltas
   only, once also compacting the handle every few ops — and demand
   every per-delta λ, every solved summary and every cache key come out
   bit-identical.  [Handle.compact] is specified observationally
   invisible (digest, version, generation, anchors all survive), so any
   drift here is a real defect in the delta layer. *)
let certify_incremental_checks () =
  let workloads =
    [
      ("torus4", Generators.torus 4 4);
      ("grid5", Generators.grid 5 5);
      ("gnp24", Generators.gnp_connected ~rng:(Rng.create 12) 24 0.3);
    ]
  in
  let one (gname, g) =
    let ops =
      Generators.delta_stream ~rng:(Rng.create 77) ~wmax:3 ~base:g 40
    in
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
          | Error e ->
              errors := Printf.sprintf "%s: delta rejected: %s" gname e :: !errors);
          if compact_every > 0 && i mod compact_every = compact_every - 1 then
            ignore (Service.session_compact svc "s");
          if List.mem i solve_points then
            match
              Service.session_solve svc "s" ~algorithm:Api.Exact_small_lambda
                ~seed:0 ~trees:None
            with
            | Ok resp -> solved := resp :: !solved
            | Error e ->
                errors := Printf.sprintf "%s: solve failed: %s" gname e :: !errors)
        ops;
      (List.rev !trace, List.rev !solved)
    in
    let trace_a, solved_a = replay ~compact_every:0 in
    let trace_b, solved_b = replay ~compact_every:7 in
    let diffs =
      if List.length solved_a <> List.length solved_b then
        [ Printf.sprintf "%s: solve counts differ" gname ]
      else
        List.concat
          [
            Replay.diff_named ~name:(gname ^ ": per-delta (version, λ) trace")
              ~equal:(List.equal (fun (v1, l1) (v2, l2) -> v1 = v2 && l1 = l2))
              trace_a trace_b;
            List.concat
              (List.map2
                 (fun (a : Request.response) (b : Request.response) ->
                   List.map
                     (fun d -> gname ^ ": " ^ d)
                     (List.concat
                        [
                          diff_summary a.Request.summary b.Request.summary;
                          Replay.diff_named ~name:"cache key"
                            ~equal:String.equal a.Request.key b.Request.key;
                          Replay.diff_named ~name:"cached flag"
                            ~equal:Bool.equal a.Request.cached b.Request.cached;
                        ]))
                 solved_a solved_b);
          ]
    in
    !errors @ diffs
  in
  let details = List.concat_map one workloads in
  [
    {
      Certify.name = "serve: delta-then-solve = compact-then-solve (bit-identical)";
      ok = details = [];
      details;
    };
  ]

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
  let inject =
    match inject with
    | None -> Ok None
    | Some name -> (
        match Certify.defect_of_name name with
        | Some d -> Ok (Some d)
        | None -> Error name)
  in
  match inject with
  | Error name ->
      Printf.eprintf
        "mincut_lint certify: unknown defect %S (expected order, span or \
         payload)\n"
        name;
      2
  | Ok inject ->
      let r = Certify.run ~quick ?slack ?inject ~extra:certify_incremental_checks () in
      if json then print_endline (Json.to_string (Certify.to_json r))
      else report_certify_human r;
      if r.Certify.ok then 0 else 1

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
       analyzer that must catch it; the run then exits non-zero, proving \
       the certifier is live."
    in
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"DEFECT" ~doc)
  in
  let doc =
    "CONGEST-model certifier: shadow sanitizers, span-tree invariant \
     verification, asymptotic envelope fits"
  in
  Cmd.v
    (Cmd.info "certify" ~doc)
    Term.(const run_certify $ quick_arg $ json_arg $ slack_arg $ inject_arg)

let cmd =
  let json_arg =
    let doc = "Emit one machine-readable JSON report on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let doc =
    "static analysis for the mincut repo: CONGEST conformance replay, plus \
     the ast and certify subcommands"
  in
  Cmd.group
    ~default:Term.(const run $ json_arg)
    (Cmd.info "mincut_lint" ~version:"1.0.0" ~doc)
    [ ast_cmd; certify_cmd ]

let () = exit (Cmd.eval' cmd)
