(* session-churn: writes beside reads on one versioned session.

   A pass opens session "s" on a 10×10 torus on a fresh service and
   streams 64 deltas ([Generators.delta_stream], default mix) through
   [Server.run] over in-memory lines.  One op is a client commit: 16
   [DELTA] lines, then [SOLVE session=s algo=exact] to read λ back, timed
   from the first delta to the solve's reply; summing 16 deltas makes an
   op's time vary smoothly with the share of rebuilds instead of jumping
   per delta.  Deltas exercise [Handle] and [Incremental] (reuse /
   certificate solve / rebuild), solves exercise
   [Graph_key.versioned_key], the anchored summaries and the
   version-chain cache, so a change that speeds solves but slows deltas
   shows here.  Short passes keep every session near its base, so the
   cost of a commit does not drift with how far a run got.

   The cycle is [cycle_passes] passes, pass p's stream depending only on
   (seed, p); the run repeats it until the time is up.  A fresh service
   per pass makes every repeat of a commit the same work.  The traced
   run replays the ops through [Service.session_delta] and
   [session_solve]'s public call order on its own session and cache,
   fresh for every pass too. *)

module Generators = Mincut_graph.Generators
module Delta = Mincut_graph.Delta
module Handle = Mincut_graph.Handle
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Hash = Mincut_util.Hash
module Api = Mincut_core.Api
module Incremental = Mincut_core.Incremental
module Service = Mincut_serve.Service
module Protocol = Mincut_serve.Protocol
module Graph_key = Mincut_serve.Graph_key
module Cache = Mincut_serve.Cache
module Request = Mincut_serve.Request
open Common

let deltas_per_pass = 64
let batch = 16
let cycle_passes = 64
let reference_passes = 8  (* the reference set of [congest_rounds] *)
let base = Generators.torus 10 10
let config = Serve_mix.config
let solve_line = "SOLVE session=s algo=exact"

(* pass p: its commits, each a batch of deltas followed by one solve *)
let pass_ops ~seed p =
  let rng = item_rng ~seed ~stream:4 p in
  let rec chunks acc = function
    | [] -> List.rev acc
    | ds ->
        let now = List.filteri (fun i _ -> i < batch) ds in
        let rest = List.filteri (fun i _ -> i >= batch) ds in
        chunks (Array.of_list now :: acc) rest
  in
  Array.of_list (chunks [] (Generators.delta_stream ~rng ~base deltas_per_pass))

let lines deltas =
  Array.to_list (Array.map (fun d -> "DELTA s " ^ Delta.to_line d) deltas) @ [ solve_line ]

(* ---- the closed loop over the real server -------------------------- *)

let fresh_service () =
  let service = Service.create ~config () in
  ignore (Service.session_open service "s" base);
  service

(* Serve the commits [ops] of one pass on [service].  [replay op] runs
   right after the server answered [op], before the next op is made: the
   traced run replays each op through the shadow there. *)
let drive_pass ?pace service ops ~replay =
  let pos = ref 0 and last = ref None in
  let next () =
    Option.iter replay !last;
    last := None;
    if !pos < Array.length ops then begin
      let op = ops.(!pos) in
      incr pos;
      last := Some op;
      Some { Drive.lines = lines op; replies = Array.length op + 1 }
    end
    else None
  in
  Drive.run ?pace service ~next

(* ---- traced: Service.session_delta / session_solve's call order ----- *)

let span = Trace.span

let mode_name = function
  | Incremental.Reused -> "reused"
  | Incremental.Cert_solved -> "cert_solved"
  | Incremental.Resolved -> "resolved"

type shadow_stats = {
  mutable resolved : int;
  mutable deltas : int;
  mutable hits : int;
  mutable lookups : int;
  mutable anchored : int;
}

let shadow_line cache stats s text =
  let params = config.Service.params in
  match span "serve.protocol_parse" (fun () -> Protocol.parse text) with
  | Ok (Protocol.Delta_op { sname; dop }) -> (
      stats.deltas <- stats.deltas + 1;
      let r =
        Trace.span_by
          (function
            | Ok (_, (a : Api.delta_answer)) -> "core.apply_delta." ^ mode_name a.Api.mode
            | Error _ -> "core.apply_delta.error")
          (fun () -> Api.apply_delta s dop)
      in
      match r with
      | Error e -> "ERR DELTA " ^ sname ^ ": " ^ e
      | Ok (outcome, answer) ->
          if answer.Api.mode = Incremental.Resolved then stats.resolved <- stats.resolved + 1;
          span "serve.format" (fun () ->
              let h = Api.session_handle s in
              Printf.sprintf
                "OK delta %s version=%d lambda=%d mode=%s n=%d channels=%d hash=%s" sname
                outcome.Handle.version answer.Api.lambda
                (Incremental.mode_name answer.Api.mode)
                (Handle.n h) (Handle.channels h)
                (Hash.to_hex (Handle.digest h))))
  | Ok (Protocol.Solve ({ source = Protocol.Session _; _ } as a)) ->
      let algorithm = a.Protocol.algorithm and seed = a.Protocol.seed in
      let trees = a.Protocol.trees in
      let key =
        span "serve.graph_key.versioned_key" (fun () ->
            Graph_key.versioned_key ~algorithm ~seed ~trees ~params (Api.session_handle s))
      in
      stats.lookups <- stats.lookups + 1;
      let summary, cached =
        match span "serve.cache.find" (fun () -> Cache.find cache key) with
        | Some sum ->
            stats.hits <- stats.hits + 1;
            (sum, true)
        | None ->
            let sum, anchored =
              span "core.min_cut_session" (fun () ->
                  Api.min_cut_session ~algorithm ~seed ?trees s)
            in
            if anchored then stats.anchored <- stats.anchored + 1;
            span "serve.cache.add" (fun () -> Cache.add cache key sum);
            (sum, anchored)
      in
      span "serve.format" (fun () ->
          "OK " ^ Protocol.format_response { Request.summary; cached; key; elapsed_ms = 0.0 })
  | _ -> failwith "session-churn: unexpected request line"

(* the shadow opens its own session and cache per pass, the cache of the
   same size as the service's (see Serve_mix.shadow) *)
let shadow () =
  let fresh () =
    Cache.create ~max_entries:config.Service.cache_entries
      ~max_cost:config.Service.cache_cost ~cost:(fun _ -> 1) ()
  in
  let stats = { resolved = 0; deltas = 0; hits = 0; lookups = 0; anchored = 0 } in
  let pass = ref None and results = ref [] and k = ref 0 in
  let replay p deltas =
    let cache, s =
      match !pass with
      | Some (q, cache, s) when q = p -> (cache, s)
      | _ ->
          let cache = fresh () and s = Api.open_session ~params:config.Service.params base in
          pass := Some (p, cache, s);
          (cache, s)
    in
    Trace.set_op !k;
    incr k;
    let a = now () in
    let replies = List.map (shadow_line cache stats s) (lines deltas) in
    results := (replies, (now () -. a) *. 1000.0) :: !results
  in
  (replay, fun () -> (Array.of_list (List.rev !results), stats))

(* ---- checks: a bench-side Handle replay of every pass --------------- *)

(* one pass's replies against a Handle replay of its deltas, with
   Stoer–Wagner at every solve; [k0] numbers its first op *)
let check_pass ~k0 ops (served : Drive.served array) =
  let failures = ref [] in
  let h = Handle.of_graph base in
  Array.iteri
    (fun j deltas ->
      let fail fmt =
        Printf.ksprintf
          (fun s -> failures := Printf.sprintf "op %d: %s" (k0 + j) s :: !failures)
          fmt
      in
      let replies = Array.of_list served.(j).Drive.replies in
      if Array.length replies <> Array.length deltas + 1 || not (Array.for_all is_ok replies)
      then fail "replies %s" (String.concat " | " (Array.to_list replies))
      else begin
        Array.iteri
          (fun i d ->
            match Handle.apply h d with
            | Error e -> fail "the generated delta is invalid on replay: %s" e
            | Ok outcome ->
                let r = replies.(i) in
                if
                  int_field r "version" <> Some outcome.Handle.version
                  || int_field r "n" <> Some (Handle.n h)
                  || int_field r "channels" <> Some (Handle.channels h)
                  || field r "hash" <> Some (Hash.to_hex (Handle.digest h))
                then fail "delta reply %S disagrees with the replayed handle" r)
          deltas;
        let truth = Stoer_wagner.min_cut_value (Handle.current h) in
        let solve = replies.(Array.length deltas) in
        if int_field solve "value" <> Some truth then
          fail "session answer %S, Stoer–Wagner λ=%d" solve truth;
        if
          Array.length deltas > 0
          && int_field replies.(Array.length deltas - 1) "lambda" <> Some truth
        then fail "the last delta's λ disagrees with Stoer–Wagner λ=%d" truth
      end)
    ops;
  List.rev !failures

(* [runs] in order, each (cycle index, served): the first run of each
   pass of the cycle is checked against the replay, every repeat must
   answer exactly as it did (reply lines minus [ms=]) *)
let check cycle runs =
  let first = Hashtbl.create cycle_passes and k0 = ref 0 in
  List.concat_map
    (fun (c, (served : Drive.served array)) ->
      let at = !k0 in
      k0 := at + Array.length served;
      let replies (s : Drive.served array) =
        Array.map (fun (x : Drive.served) -> List.map strip_ms x.Drive.replies) s
      in
      match Hashtbl.find_opt first c with
      | None ->
          Hashtbl.replace first c served;
          check_pass ~k0:at cycle.(c) served
      | Some earlier when replies earlier = replies served -> []
      | Some _ -> [ Printf.sprintf "ops %d-: a repeat of pass %d answered differently" at c ])
    runs

let layer_names =
  [
    ("serve.protocol_parse", [ `Ms ]);
    ("serve.format", [ `Ms ]);
    ("serve.cache.find", [ `Ms ]);
    ("serve.graph_key.versioned_key", [ `Ms ]);
    ("core.min_cut_session", [ `Ms ]);
    ("core.apply_delta.reused", [ `Ms ]);
    ("core.apply_delta.cert_solved", [ `Ms ]);
    ("core.apply_delta.resolved", [ `Ms ]);
  ]

(* simulated rounds of the solves among [served]: each op's last reply *)
let solve_rounds (served : Drive.served array) =
  Array.fold_left
    (fun acc (s : Drive.served) ->
      match List.rev s.Drive.replies with
      | solve :: _ -> acc + Option.value (int_field solve "rounds") ~default:0
      | [] -> acc)
    0 served
  |> float_of_int

(* Passes until the time is up, at least [min_cycles] cycles untraced
   and one traced; the first pass runs on the set-up's service, each
   later one on a fresh service made between passes. *)
let run ~seed ~seconds ~trace ~write_trace =
  let setup_s, (service, cycle) =
    timed_setup ~reps:setup_reps (fun () ->
        (fresh_service (), Array.init cycle_passes (pass_ops ~seed)))
  in
  let ops_per_pass = Array.length cycle.(0) in
  let min_passes = cycle_passes * if trace then 1 else min_cycles in
  let shadow = if trace then Some (shadow ()) else None in
  let runs = ref [] and p = ref 0 in
  let pace = Pace.create () in
  if trace then Trace.start ();
  let t0 = now () in
  while keep_going ~t0 ~seconds ~min_ops:min_passes !p do
    let pass = !p and c = !p mod cycle_passes in
    let replay = match shadow with Some (r, _) -> r pass | None -> fun _ -> () in
    let service = if pass = 0 then service else fresh_service () in
    runs := (c, drive_pass ~pace service cycle.(c) ~replay) :: !runs;
    incr p
  done;
  Trace.stop ();
  let peak_rss_kb = peak_rss_kb () in
  let factors, slowdown = Pace.finish pace in
  let runs = List.rev !runs in
  let served = Array.concat (List.map snd runs) in
  let op_ms = Array.map (fun s -> s.Drive.ms) served in
  let ops = Array.length served in
  let latency_ms, busy_ms =
    typical ~items:(cycle_passes * ops_per_pass)
      (List.concat_map
         (fun (c, s) ->
           Array.to_list (Array.mapi (fun j -> Drive.sample factors ((c * ops_per_pass) + j)) s))
         runs)
  in
  (* the reference set: the first passes of [reference_seed] *)
  let rounds, reference_failures, reference_ops =
    if trace then (0.0, [], 0)
    else begin
      let rcycle = Array.init reference_passes (pass_ops ~seed:reference_seed) in
      let rruns =
        List.init reference_passes (fun c ->
            (c, drive_pass (fresh_service ()) rcycle.(c) ~replay:(fun _ -> ())))
      in
      let rserved = Array.concat (List.map snd rruns) in
      ( solve_rounds rserved,
        List.map (( ^ ) "reference ") (check rcycle rruns),
        Array.length rserved )
    end
  in
  let failures = check cycle runs in
  let layers, shadow_failures =
    match shadow with
    | None -> ([], [])
    | Some (_, replayed) ->
      let results, stats = replayed () in
      let replies = Array.map fst results and stimes = Array.map snd results in
      let spans = Trace.recorded () in
      write_trace spans;
      let mismatches =
        List.filter_map
          (fun k ->
            if List.map strip_ms served.(k).Drive.replies = List.map strip_ms replies.(k)
            then None
            else Some (Printf.sprintf "op %d: traced shadow differs from the server" k))
          (List.init ops Fun.id)
      in
      let layers =
        layer_metrics ~ops ~traced_ms:(Array.fold_left ( +. ) 0.0 stimes) spans layer_names
      in
      let get name = Option.value (List.assoc_opt name layers) ~default:0.0 in
      ( layers
        @ [
            ( "core.apply_delta.ms",
              get "core.apply_delta.reused.ms" +. get "core.apply_delta.cert_solved.ms"
              +. get "core.apply_delta.resolved.ms" );
            ("core.delta.fallback_frac", ratio stats.resolved stats.deltas);
            ("core.session.anchored_frac", ratio stats.anchored (stats.lookups - stats.hits));
            ("serve.cache.hit_frac", ratio stats.hits stats.lookups);
          ]
        @ gc_layers (Array.map (fun s -> s.Drive.gc) served)
        @ [ overhead ~untraced:op_ms ~traced:stimes ],
        mismatches )
  in
  {
    attempted = (if trace then 2 * ops else ops + reference_ops);
    failures = failures @ reference_failures @ shadow_failures;
    timed_ops = ops;
    latency_ms;
    busy_ms;
    slowdown;
    rounds;
    setup_s;
    peak_rss_kb;
    layers;
    digest =
      digest_strings (Array.map (fun op -> String.concat "\n" (lines op)) cycle.(0));
  }
