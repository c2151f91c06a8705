(* A closed-loop client over one in-memory [Server.run] connection.

   The server pulls request lines through [read_line] and pushes replies
   through [write_line], one request at a time, so the client is a pair
   of callbacks: an op's clock starts when the server reads its first
   line and stops when it writes the op's last expected reply.  Work the
   client does to produce the next op's lines (generating, permuting,
   printing a graph, replaying the op through a traced shadow) happens
   inside [next], before that first read, and is never timed.  What the
   server does after an op's last reply and before it asks for the next
   op's first line is the op's [after_ms].  With a [pace], the kernel is
   timed there too, after [after_ms] and before [next]. *)

module Server = Mincut_serve.Server

type op = { lines : string list; replies : int }

type served = {
  ms : float;  (** nan when the server wrote fewer replies than the op expects *)
  gc : Common.gc_work;
  replies : string list;
  block : int;  (** the op's [Pace] block *)
  mutable after_ms : float;
}

(* Serve the ops [next] yields, until it returns [None]; one [served]
   per op, in order. *)
let run ?pace service ~next =
  let pending = ref [] in
  let got = ref [] and want = ref 0 and t0 = ref 0.0 and complete = ref true in
  let mark = ref (Common.gc_mark ()) and block = ref 0 in
  let served = ref [] and closed_at = ref 0.0 in
  let close ms =
    served :=
      { ms; gc = Common.gc_since !mark; replies = List.rev !got; block = !block; after_ms = 0.0 }
      :: !served;
    closed_at := Common.now ();
    complete := true
  in
  let read_line () =
    match !pending with
    | line :: rest ->
        pending := rest;
        Some line
    | [] -> (
        if not !complete then close Float.nan;
        (match !served with
        | last :: _ ->
            last.after_ms <- (Common.now () -. !closed_at) *. 1000.0;
            let ms = if Float.is_nan last.ms then 0.0 else last.ms in
            Option.iter (fun p -> Pace.after_op p (ms +. last.after_ms)) pace
        | [] -> ());
        match next () with
        | None -> None
        | Some { lines = []; _ } -> invalid_arg "Drive.run: an op has no lines"
        | Some { lines = first :: rest; replies } ->
            pending := rest;
            got := [];
            want := replies;
            complete := false;
            block := Option.fold ~none:0 ~some:Pace.block pace;
            mark := Common.gc_mark ();
            t0 := Common.now ();
            Some first)
  in
  let write_line s =
    got := s :: !got;
    if (not !complete) && List.length !got = !want then
      close ((Common.now () -. !t0) *. 1000.0)
  in
  ignore (Server.run service { Server.read_line; write_line });
  if not !complete then close Float.nan;
  Array.of_list (List.rev !served)

(* the sample of item [item] at the reference speed, given the pace
   factor of every block: its latency and its busy time, the latency
   plus the program's work before it asked for the next op *)
let sample factors item s =
  let f = factors.(s.block) in
  (item, s.ms *. f, (s.ms +. s.after_ms) *. f)
