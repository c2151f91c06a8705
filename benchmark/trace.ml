(* In-memory span recorder for the traced run.

   A span is one call into a library function, wrapped from the
   benchmark's side: its name (the layer metric it feeds), the op it
   belongs to, the enclosing span, wall-clock start and end, and the
   minor words allocated inside it.  Spans are kept in memory while the
   run is timed and written out as JSONL afterwards, so the file I/O
   never lands inside a span.  Recording is off unless [start] was
   called, so the untraced run pays one branch per wrapped call. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** enclosing span id, -1 at top level *)
  t0 : float;
  t1 : float;
  words : float;  (** minor words allocated between start and end *)
}

(* monotonic nanoseconds, in seconds: gettimeofday's microsecond steps
   would quantize sub-millisecond latencies into repeating values *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let on = ref false
let op = ref 0
let next_id = ref 0
let current = ref (-1)
let spans : span list ref = ref []

let start () =
  on := true;
  op := 0;
  next_id := 0;
  current := -1;
  spans := []

let stop () = on := false

(* record again after [stop], keeping the spans so far *)
let resume () = on := true
let set_op i = op := i

(* [span_by name_of f] runs [f] inside a span whose name is derived from
   the result, so a call whose layer is only known afterwards (which
   answer tier a delta took) is still one span. *)
let span_by name_of f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let close name =
      let t1 = now () in
      let words = Gc.minor_words () -. w0 in
      current := parent;
      spans := { id; name; op = !op; parent; t0; t1; words } :: !spans
    in
    match f () with
    | v ->
        close (name_of v);
        v
    | exception e ->
        close "error";
        raise e
  end

let span name f = span_by (fun _ -> name) f

let recorded () = Array.of_list (List.rev !spans)

(* self time: a span's duration minus the time its direct children
   cover (children nest inside their parent, one thread) *)
let self_times (all : span array) =
  let self = Array.map (fun s -> s.t1 -. s.t0) all in
  let index = Hashtbl.create (Array.length all) in
  Array.iteri (fun i s -> Hashtbl.replace index s.id i) all;
  Array.iter
    (fun s ->
      match Hashtbl.find_opt index s.parent with
      | Some p -> self.(p) <- self.(p) -. (s.t1 -. s.t0)
      | None -> ())
    all;
  self

type layer = { ms : float; calls : int; mwords : float }

(* per span name: total self milliseconds, call count and inclusive
   minor megawords *)
let by_name all =
  let self = self_times all in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let l =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ ms = 0.0; calls = 0; mwords = 0.0 }
      in
      Hashtbl.replace tbl s.name
        {
          ms = l.ms +. (self.(i) *. 1000.0);
          calls = l.calls + 1;
          mwords = l.mwords +. (s.words /. 1e6);
        })
    all;
  tbl

let total_self_ms all = Array.fold_left ( +. ) 0.0 (self_times all) *. 1000.0

let write path all =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let base = if Array.length all = 0 then 0.0 else all.(0).t0 in
      Array.iter
        (fun s ->
          Printf.fprintf oc
            "{\"name\":%S,\"op\":%d,\"id\":%d,\"parent\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\"minor_words\":%.0f}\n"
            s.name s.op s.id s.parent
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. base) *. 1e6)
            s.words)
        all)
