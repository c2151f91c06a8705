(* serve-mix: request in, response out, through the line protocol.

   One op is one client query against a catalogue of 400 graphs
   (n 10–100; the graph at popularity rank r has a family and size fixed
   by r, so the popular head is the same sizes on every seed, and sizes
   spread evenly over each family's range, so hit and miss times form
   smooth distributions without gaps for a percentile to jump across)
   with Zipf(1.1) popularity: a [GRAPH] upload of a
   freshly edge-permuted, endpoint-flipped copy of the chosen graph,
   then [SOLVE] (80% exact, 10% approx ε=0.5) or [ESTIMATE] (10%), all
   through [Server.run] over in-memory lines.  The service runs with one
   worker and a 128-entry LRU cache, so after the 500 untimed warm-up
   queries the hit rate holds near 80%: hits (protocol parse,
   [Graph.of_array], the structural hash for the ack and again for the
   key) set the median, misses (canonicalize + solve) set the tail.

   A pass is a fresh service serving the same query sequence: the
   warm-up, then the [pass_queries] timed queries that are the cycle.
   The service is deterministic, so query i of the cycle meets the same
   cache state, hits or misses alike, in every pass.  The traced run
   replays the ops through [Server] and [Service.solve]'s public call
   order on its own cache of the same size, fresh for every pass too. *)

module Graph = Mincut_graph.Graph
module Stoer_wagner = Mincut_graph.Stoer_wagner
module Rng = Mincut_util.Rng
module Hash = Mincut_util.Hash
module Api = Mincut_core.Api
module Service = Mincut_serve.Service
module Protocol = Mincut_serve.Protocol
module Graph_key = Mincut_serve.Graph_key
module Cache = Mincut_serve.Cache
module Request = Mincut_serve.Request
open Common

let catalogue_size = 400
let warmup = 500
let pass_queries = 1000  (* so the 99th percentile has ten items beyond it *)
let reference_queries = 200  (* the reference set of [congest_rounds] *)
let cache_entries = 128
let epsilon = 0.5

(* rank r's family and size; x runs over [0, 1) in 400 distinct steps *)
let spec_of_rank r =
  let x = float_of_int (r * 163 mod catalogue_size) /. float_of_int catalogue_size in
  let within lo hi = lo + int_of_float (x *. float_of_int (hi - lo + 1)) in
  match r mod 4 with
  | 0 -> Solve.Torus (within 5 10)
  | 1 -> Solve.Cliques (4, within 6 20)
  | 2 -> Solve.Planted (2 * within 16 32, within 2 5, 0.5)
  | _ -> Solve.Complete (within 10 24)

let config = { Service.default_config with Service.workers = 1; cache_entries }

type entry = { n : int; edges : (int * int * int) array }

type world = {
  catalogue : entry array;
  cdf : float array;  (** Zipf(1.1) over popularity ranks *)
}

let setup ~seed =
  let catalogue =
    Array.init catalogue_size (fun r ->
        let rng = item_rng ~seed ~stream:2 r in
        let g = scramble rng (Solve.build rng (spec_of_rank r)) in
        {
          n = Graph.n g;
          edges = Array.map (fun (e : Graph.edge) -> (e.Graph.u, e.Graph.v, e.Graph.w)) (Graph.edges g);
        })
  in
  let weights = Array.init catalogue_size (fun r -> 1.0 /. (float_of_int (r + 1) ** 1.1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let acc = ref 0.0 in
  let cdf = Array.map (fun w -> acc := !acc +. (w /. total); !acc) weights in
  { catalogue; cdf }

type kind = Exact | Approx | Estimate
type pick = { rank : int; kind : kind }

let zipf cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* query k — which graph, which request, and its lines — depends only on
   (seed, k); the lines are regenerated rather than kept, so the client's
   memory stays out of the server's peak RSS.  The mix — which rank and
   which request query k makes — is the same for every seed, like the
   solve workloads' sizes: it sets the cache's hits and misses, and with
   it drawn per seed, runs of the same code on seeds 2 and 3 differed by
   30% in [ops_per_s].  The seed draws the graphs' structure, node
   labels, edge order and endpoint flips. *)
let query w ~seed k =
  let mix = item_rng ~seed:0 ~stream:3 k in
  let rank = zipf w.cdf (Rng.float mix 1.0) in
  let kind =
    match Rng.int mix 10 with 8 -> Approx | 9 -> Estimate | _ -> Exact
  in
  let rng = item_rng ~seed ~stream:5 k in
  let e = w.catalogue.(rank) in
  let edges = Array.copy e.edges in
  Rng.shuffle rng edges;
  let edge_lines =
    Array.to_list
      (Array.map
         (fun (u, v, wt) ->
           if Rng.bool rng then Printf.sprintf "%d %d %d" v u wt
           else Printf.sprintf "%d %d %d" u v wt)
         edges)
  in
  let request =
    match kind with
    | Exact -> "SOLVE graph=q algo=exact"
    | Approx -> Printf.sprintf "SOLVE graph=q algo=approx epsilon=%g" epsilon
    | Estimate -> "ESTIMATE graph=q"
  in
  ( { rank; kind },
    (Printf.sprintf "GRAPH q %d %d" e.n (Array.length edges) :: edge_lines) @ [ request ] )

(* ---- the closed loop over the real server -------------------------- *)

(* Serve queries 0, 1, ... of [seed] on [service]: [warmup] untimed
   ones, then timed ones while [more made] holds for the [made] timed
   queries so far.  [replay k lines] runs right after the server
   answered query k, before the next query is made: the traced run
   replays each query through the shadow there, so both see the same
   heap. *)
let drive ?pace w ~service ~seed ~warmup ~more ~replay =
  let picks = ref [] and k = ref 0 and last = ref [] in
  let next () =
    if !k > 0 then replay (!k - 1) !last;
    if !k >= warmup && not (more (!k - warmup)) then None
    else begin
      let pick, lines = query w ~seed !k in
      picks := pick :: !picks;
      last := lines;
      incr k;
      Some { Drive.lines; replies = 2 }
    end
  in
  let served = Drive.run ?pace service ~next in
  (Array.of_list (List.rev !picks), served)

(* ---- traced: the same ops in Server + Service.solve's call order ---- *)

let span = Trace.span

(* Server.read_graph_def's edge-line parsing *)
let parse_edges lines =
  Array.of_list
    (List.map
       (fun line ->
         match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
         | [ u; v; wt ] -> (int_of_string u, int_of_string v, int_of_string wt)
         | _ -> failwith "serve-mix: malformed edge line")
       lines)

type shadow_op = { replies : string list; hit : bool option  (** [None] for ESTIMATE *) }

let shadow_op cache params lines =
  let header, rest = match lines with h :: r -> (h, r) | [] -> assert false in
  match span "serve.protocol_parse" (fun () -> Protocol.parse header) with
  | Ok (Protocol.Graph_def { name; n; m }) -> (
      let edge_lines = List.filteri (fun i _ -> i < m) rest in
      let request = List.nth rest m in
      let triples = span "serve.protocol_parse" (fun () -> parse_edges edge_lines) in
      let g = span "graph.of_array" (fun () -> Graph.of_array ~n triples) in
      let h = span "serve.graph_key.hash" (fun () -> Graph_key.structural_hash g) in
      let ack =
        span "serve.format" (fun () ->
            Printf.sprintf "OK graph %s n=%d m=%d hash=%s" name (Graph.n g) (Graph.m g)
              (Hash.to_hex h))
      in
      match span "serve.protocol_parse" (fun () -> Protocol.parse request) with
      | Ok (Protocol.Solve a) ->
          let algorithm = a.Protocol.algorithm and seed = a.Protocol.seed in
          let trees = a.Protocol.trees in
          let key =
            span "serve.graph_key.hash" (fun () ->
                Graph_key.key ~algorithm ~seed ~trees ~params g)
          in
          let summary, cached =
            match span "serve.cache.find" (fun () -> Cache.find cache key) with
            | Some s -> (s, true)
            | None ->
                let c = span "serve.graph_key.canonicalize" (fun () -> Graph_key.canonicalize g) in
                let s =
                  span "core.min_cut" (fun () -> Api.min_cut ~params ~algorithm ~seed ?trees c)
                in
                span "serve.cache.add" (fun () -> Cache.add cache key s);
                (s, false)
          in
          let reply =
            span "serve.format" (fun () ->
                "OK "
                ^ Protocol.format_response
                    { Request.summary; cached; key; elapsed_ms = 0.0 })
          in
          { replies = [ ack; reply ]; hit = Some cached }
      | Ok (Protocol.Estimate e) ->
          let c = span "serve.graph_key.canonicalize" (fun () -> Graph_key.canonicalize g) in
          let r =
            span "core.estimate" (fun () ->
                Api.estimate ~seed:e.Protocol.eseed ?trials:e.Protocol.etrials c)
          in
          let reply =
            span "serve.format" (fun () -> "OK " ^ Protocol.format_estimate ~elapsed_ms:0.0 r)
          in
          { replies = [ ack; reply ]; hit = None }
      | _ -> failwith "serve-mix: unexpected request line")
  | _ -> failwith "serve-mix: unexpected header line"

(* the shadow's own cache, of the same size as the service's and fresh
   for every pass like it: a cost function of 1 never binds at the
   service's cost bound, so both evict by entry count alone and their
   hits coincide.  Warm-up queries replay with recording off, so the
   two caches stay in step.  [replay p k lines] replays query k of pass
   p; the results come back in replay order. *)
let shadow () =
  let fresh () =
    Cache.create ~max_entries:config.Service.cache_entries
      ~max_cost:config.Service.cache_cost ~cost:(fun _ -> 1) ()
  in
  let cache = ref (fresh ()) and pass = ref 0 in
  let results = ref [] in
  let replay p k lines =
    if p <> !pass then begin
      cache := fresh ();
      pass := p
    end;
    if k < warmup then Trace.stop () else Trace.resume ();
    Trace.set_op ((p * (warmup + pass_queries)) + k);
    let a = now () in
    let r = shadow_op !cache config.Service.params lines in
    results := (k, r, (now () -. a) *. 1000.0) :: !results
  in
  (replay, fun () -> Array.of_list (List.rev !results))

(* ---- checks --------------------------------------------------------- *)

let check w (picks : pick array) (served : Drive.served array) =
  let truth = Hashtbl.create 64 in
  let lambda rank =
    match Hashtbl.find_opt truth rank with
    | Some l -> l
    | None ->
        let e = w.catalogue.(rank) in
        let l = Stoer_wagner.min_cut_value (Graph.of_array ~n:e.n e.edges) in
        Hashtbl.replace truth rank l;
        l
  in
  let fail k fmt = Printf.ksprintf (fun s -> Some (Printf.sprintf "query %d: %s" k s)) fmt in
  List.filter_map Fun.id
    (List.init (Array.length picks) (fun k ->
         let q = picks.(k) in
         let e = w.catalogue.(q.rank) in
         let l = lambda q.rank in
         match served.(k).Drive.replies with
         | [ ack; reply ] when is_ok ack && is_ok reply -> (
             if int_field ack "n" <> Some e.n || int_field ack "m" <> Some (Array.length e.edges)
             then fail k "GRAPH ack %S does not match the upload" ack
             else
               match q.kind with
               | Exact -> (
                   match int_field reply "value" with
                   | Some v when v = l -> None
                   | _ -> fail k "exact answer %S, Stoer–Wagner λ=%d" reply l)
               | Approx -> (
                   match int_field reply "value" with
                   | Some v when v >= l && float_of_int v <= (1.0 +. epsilon) *. float_of_int l -> None
                   | _ -> fail k "approx answer %S outside [λ, (1+ε)λ] for λ=%d" reply l)
               | Estimate -> (
                   match (int_field reply "lower", int_field reply "upper") with
                   | Some lo, Some hi when lo <= l && l <= hi -> None
                   | _ -> fail k "estimate %S misses λ=%d" reply l))
         | replies -> fail k "replies %s" (String.concat " | " replies)))

let layer_names =
  [
    ("serve.protocol_parse", [ `Ms ]);
    ("graph.of_array", [ `Ms ]);
    ("serve.graph_key.hash", [ `Ms; `Calls ]);
    ("serve.graph_key.canonicalize", [ `Ms ]);
    ("serve.format", [ `Ms ]);
    ("serve.cache.find", [ `Ms ]);
    ("core.min_cut", [ `Ms; `Calls ]);
    ("core.estimate", [ `Ms ]);
  ]

(* simulated rounds of the answered solves among [served] *)
let solve_rounds (picks : pick array) (served : Drive.served array) =
  let total = ref 0 in
  Array.iteri
    (fun k (s : Drive.served) ->
      match (picks.(k).kind, s.Drive.replies) with
      | (Exact | Approx), [ _; reply ] ->
          total := !total + Option.value (int_field reply "rounds") ~default:0
      | _ -> ())
    served;
  float_of_int !total

(* Passes until the time is up, at least [min_cycles] of them untraced;
   an untraced run may stop inside a pass's timed queries, a traced one
   ends on a whole pass. *)
let run ~seed ~seconds ~trace ~write_trace =
  let setup_s, w = timed_setup ~reps:setup_reps (fun () -> setup ~seed) in
  let shadow = if trace then Some (shadow ()) else None in
  let min_passes = if trace then 1 else min_cycles in
  let passes = ref [] and p = ref 0 in
  let pace = Pace.create () in
  if trace then Trace.start ();
  let t0 = now () in
  while keep_going ~t0 ~seconds ~min_ops:min_passes !p do
    let pass = !p in
    let replay = match shadow with Some (r, _) -> r pass | None -> fun _ _ -> () in
    let more made =
      made < pass_queries && (trace || keep_going ~t0 ~seconds ~min_ops:min_passes pass)
    in
    passes :=
      drive ~pace w ~service:(Service.create ~config ()) ~seed ~warmup ~more ~replay :: !passes;
    incr p
  done;
  Trace.stop ();
  let peak_rss_kb = peak_rss_kb () in
  let factors, slowdown = Pace.finish pace in
  let passes = List.rev !passes in
  let picks = Array.concat (List.map fst passes) and served = Array.concat (List.map snd passes) in
  let total = Array.length picks in
  let timed_of (_, s) = Array.sub s warmup (Array.length s - warmup) in
  let timed = Array.concat (List.map timed_of passes) in
  let op_ms = Array.map (fun s -> s.Drive.ms) timed in
  let latency_ms, busy_ms =
    typical ~items:pass_queries
      (List.concat_map
         (fun pass -> Array.to_list (Array.mapi (Drive.sample factors) (timed_of pass)))
         passes)
  in
  let failures =
    List.concat
      (List.mapi
         (fun i (picks, served) -> List.map (Printf.sprintf "pass %d %s" i) (check w picks served))
         passes)
  in
  (* the reference set: the first queries of [reference_seed] on a
     fresh catalogue and service *)
  let rounds, reference_failures =
    if trace then (0.0, [])
    else begin
      let rw = setup ~seed:reference_seed in
      let rpicks, rserved =
        drive rw ~service:(Service.create ~config ()) ~seed:reference_seed ~warmup:0
          ~more:(fun made -> made < reference_queries)
          ~replay:(fun _ _ -> ())
      in
      (solve_rounds rpicks rserved, List.map (( ^ ) "reference ") (check rw rpicks rserved))
    end
  in
  let layers, shadow_failures =
    match shadow with
    | None -> ([], [])
    | Some (_, replayed) ->
      let results = replayed () in
      let spans = Trace.recorded () in
      write_trace spans;
      let mismatches =
        List.filter_map
          (fun i ->
            let k, r, _ = results.(i) in
            if List.map strip_ms served.(i).Drive.replies = List.map strip_ms r.replies then None
            else Some (Printf.sprintf "query %d: traced shadow differs from the server" k))
          (List.init total Fun.id)
      in
      let traced =
        Array.of_list
          (List.filter_map
             (fun (k, r, ms) -> if k >= warmup then Some (r, ms) else None)
             (Array.to_list results))
      in
      let stimes = Array.map snd traced in
      let count p = Array.fold_left (fun acc (r, _) -> if p r then acc + 1 else acc) 0 traced in
      ( layer_metrics ~ops:(Array.length traced)
          ~traced_ms:(Array.fold_left ( +. ) 0.0 stimes)
          spans layer_names
        @ [
            ( "serve.cache.hit_frac",
              ratio (count (fun r -> r.hit = Some true)) (count (fun r -> r.hit <> None)) );
          ]
        @ gc_layers (Array.map (fun s -> s.Drive.gc) timed)
        @ [ overhead ~untraced:op_ms ~traced:stimes ],
        mismatches )
  in
  {
    attempted = (if trace then 2 * total else total + reference_queries);
    failures = failures @ reference_failures @ shadow_failures;
    timed_ops = Array.length timed;
    latency_ms;
    busy_ms;
    slowdown;
    rounds;
    setup_s;
    peak_rss_kb;
    layers;
    digest =
      digest_strings
        (Array.init 100 (fun k -> String.concat "\n" (snd (query w ~seed k))));
  }
