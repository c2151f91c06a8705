module Stats = Mincut_util.Stats
module Rng = Mincut_util.Rng
module Json = Mincut_util.Json
module Lockcheck = Mincut_parallel.Lockcheck

(* Counters and gauges are single atomic cells: domains record them
   without any lock.  Histograms mutate several fields per observation,
   so each carries its own rank-31 checked mutex; the registry tables
   are guarded by a rank-30 mutex (registry before histogram is the
   lock order, as in [snapshot]). *)

type counter = int Atomic.t

type gauge = float Atomic.t

(* Reservoir with exact count/sum/max: quantiles degrade gracefully to
   estimates once [capacity] is exceeded (Vitter's algorithm R). *)
type histogram = {
  hlock : Lockcheck.t;
  mutable n : int;
  mutable sum : float;
  mutable hmax : float;
  samples : float array;
  mutable filled : int;
  rng : Rng.t;
}

let reservoir_capacity = 4096

type t = {
  rlock : Lockcheck.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    rlock = Lockcheck.create ~name:"serve.metrics" ~order:30 ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let get_or_add t table name make =
  Lockcheck.with_lock t.rlock (fun () ->
      match Hashtbl.find_opt table name with
      | Some x -> x
      | None ->
          let x = make () in
          Hashtbl.add table name x;
          x)

let counter t name = get_or_add t t.counters name (fun () -> Atomic.make 0)
let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let counter_value c = Atomic.get c

let gauge t name = get_or_add t t.gauges name (fun () -> Atomic.make 0.0)
let set g v = Atomic.set g v
let gauge_value g = Atomic.get g

let histogram t name =
  get_or_add t t.histograms name (fun () ->
      {
        hlock = Lockcheck.create ~name:("serve.metrics.hist:" ^ name) ~order:31 ();
        n = 0;
        sum = 0.0;
        hmax = neg_infinity;
        samples = Array.make reservoir_capacity 0.0;
        filled = 0;
        rng = Rng.create 0x5EED;
      })

let observe h v =
  Lockcheck.with_lock h.hlock (fun () ->
      h.n <- h.n + 1;
      h.sum <- h.sum +. v;
      if v > h.hmax then h.hmax <- v;
      if h.filled < reservoir_capacity then begin
        h.samples.(h.filled) <- v;
        h.filled <- h.filled + 1
      end
      else
        let j = Rng.int h.rng h.n in
        if j < reservoir_capacity then h.samples.(j) <- v)

(* ---- snapshots ------------------------------------------------------- *)

type hist_summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

type snapshot = {
  time : float;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}

let summarize_histogram h =
  Lockcheck.with_lock h.hlock (fun () ->
      if h.n = 0 then
        { count = 0; mean = 0.0; p50 = 0.0; p90 = 0.0; p99 = 0.0; max = 0.0 }
      else
        let xs = Array.sub h.samples 0 h.filled in
        {
          count = h.n;
          mean = h.sum /. float_of_int h.n;
          p50 = Stats.percentile xs 0.5;
          p90 = Stats.percentile xs 0.9;
          p99 = Stats.percentile xs 0.99;
          max = h.hmax;
        })

let sorted_bindings table f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot (reg : t) =
  (* registry (30) before histogram (31): the one nested acquisition in
     the serving layer, and the reason histograms rank above tables *)
  Lockcheck.with_lock reg.rlock (fun () ->
      {
        time = Unix.gettimeofday ();
        counters = sorted_bindings reg.counters Atomic.get;
        gauges = sorted_bindings reg.gauges Atomic.get;
        histograms = sorted_bindings reg.histograms summarize_histogram;
      })

let to_json (s : snapshot) =
  Json.Obj
    [
      ("time", Json.Float s.time);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, h) ->
               ( k,
                 Json.Obj
                   [
                     ("count", Json.Int h.count);
                     ("mean", Json.Float h.mean);
                     ("p50", Json.Float h.p50);
                     ("p90", Json.Float h.p90);
                     ("p99", Json.Float h.p99);
                     ("max", Json.Float h.max);
                   ] ))
             s.histograms) );
    ]

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let shape what = Error (Printf.sprintf "metrics snapshot: malformed %s" what)

let req what = function Some x -> Ok x | None -> shape what

let of_json j =
  let* time = req "time" (Option.bind (Json.member "time" j) Json.to_float) in
  let* counters = req "counters" (Option.bind (Json.member "counters" j) Json.to_obj) in
  let* gauges = req "gauges" (Option.bind (Json.member "gauges" j) Json.to_obj) in
  let* hists = req "histograms" (Option.bind (Json.member "histograms" j) Json.to_obj) in
  let* counters =
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        let* i = req ("counter " ^ k) (Json.to_int v) in
        Ok ((k, i) :: acc))
      (Ok []) counters
  in
  let* gauges =
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        let* f = req ("gauge " ^ k) (Json.to_float v) in
        Ok ((k, f) :: acc))
      (Ok []) gauges
  in
  let* histograms =
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        let field name = req (k ^ "." ^ name) (Option.bind (Json.member name v) Json.to_float) in
        let* count = req (k ^ ".count") (Option.bind (Json.member "count" v) Json.to_int) in
        let* mean = field "mean" in
        let* p50 = field "p50" in
        let* p90 = field "p90" in
        let* p99 = field "p99" in
        let* max = field "max" in
        Ok ((k, { count; mean; p50; p90; p99; max }) :: acc))
      (Ok []) hists
  in
  Ok
    {
      time;
      counters = List.rev counters;
      gauges = List.rev gauges;
      histograms = List.rev histograms;
    }

let to_json_line t = Json.to_string (to_json (snapshot t))

let snapshot_of_json_line line =
  let* j = Json.of_string line in
  of_json j

let pp_snapshot ppf s =
  let open Format in
  fprintf ppf "@[<v>metrics snapshot";
  if s.time > 0.0 then begin
    let tm = Unix.localtime s.time in
    fprintf ppf " (%04d-%02d-%02d %02d:%02d:%02d)" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  end;
  if s.counters <> [] then begin
    fprintf ppf "@,counters:";
    List.iter (fun (k, v) -> fprintf ppf "@,  %-32s %12d" k v) s.counters
  end;
  if s.gauges <> [] then begin
    fprintf ppf "@,gauges:";
    List.iter (fun (k, v) -> fprintf ppf "@,  %-32s %12.2f" k v) s.gauges
  end;
  if s.histograms <> [] then begin
    fprintf ppf "@,histograms (ms):";
    fprintf ppf "@,  %-24s %8s %9s %9s %9s %9s %9s" "name" "count" "mean" "p50"
      "p90" "p99" "max";
    List.iter
      (fun (k, h) ->
        fprintf ppf "@,  %-24s %8d %9.3f %9.3f %9.3f %9.3f %9.3f" k h.count
          h.mean h.p50 h.p90 h.p99 h.max)
      s.histograms
  end;
  fprintf ppf "@]"
