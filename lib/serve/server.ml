module Graph = Mincut_graph.Graph
module Generators = Mincut_graph.Generators
module Handle = Mincut_graph.Handle
module Rng = Mincut_util.Rng
module Hash = Mincut_util.Hash
module Json = Mincut_util.Json
module Api = Mincut_core.Api
module Incremental = Mincut_core.Incremental

type io = {
  read_line : unit -> string option;
  write_line : string -> unit;
}

let io_of_channels ic oc =
  {
    read_line = (fun () -> In_channel.input_line ic);
    write_line =
      (fun s ->
        Out_channel.output_string oc s;
        Out_channel.output_char oc '\n';
        Out_channel.flush oc);
  }

type exit_reason = Quit | Shutdown | Eof

type session = {
  service : Service.t;
  io : io;
  named : (string, Graph.t) Hashtbl.t;
  tickets : (Scheduler.ticket, unit) Hashtbl.t;  (* outstanding SUBMITs *)
}

let err session fmt = Printf.ksprintf (fun s -> session.io.write_line ("ERR " ^ s)) fmt

(* Consume [k] lines of announced payload, or up to end of input. *)
let rec drain session k =
  if k > 0 then
    match session.io.read_line () with None -> () | Some _ -> drain session (k - 1)

(* Read the m edge lines following a GRAPH header.  On a malformed edge
   the remaining announced lines are still consumed, so the client and
   server never disagree about where the edge list ends.  The edge
   buffer grows as lines arrive: the header's m is the client's claim,
   and sizing an array by it up front let one line exhaust memory. *)
let read_graph_def session ~name ~n ~m =
  let triples = ref (Array.make (min m 4096) (0, 0, 0)) in
  let rec read i =
    if i = m then Ok ()
    else
      match session.io.read_line () with
      | None -> Error "end of input inside GRAPH edge list"
      | Some line -> (
          let bad () =
            drain session (m - i - 1);
            Error (Printf.sprintf "edge %d: expected 'u v w'" i)
          in
          match
            String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
          with
          | [ u; v; w ] -> (
              match
                (int_of_string_opt u, int_of_string_opt v, int_of_string_opt w)
              with
              | Some u, Some v, Some w ->
                  (* full: double it, up to the announced m *)
                  if i = Array.length !triples then
                    triples := Array.append !triples (Array.make (min (m - i) i) (0, 0, 0));
                  !triples.(i) <- (u, v, w);
                  read (i + 1)
              | _ -> bad ())
          | _ -> bad ())
  in
  match read 0 with
  | Error e -> Error e
  | Ok () -> (
      match Graph.of_array ~n !triples with
      | g ->
          Hashtbl.replace session.named name g;
          Ok g
      | exception Invalid_argument msg -> Error msg)

let resolve_source session (src : Protocol.source) =
  match src with
  | Protocol.Named name -> (
      match Hashtbl.find_opt session.named name with
      | Some g -> Ok g
      | None -> Error (Printf.sprintf "unknown graph %S (register with GRAPH)" name))
  | Protocol.Family { family; size; gseed; weight_max } ->
      let rng = Rng.create gseed in
      let weights =
        if weight_max <= 1 then None
        else Some { Generators.wmin = 1; wmax = weight_max }
      in
      Generators.by_name ~rng ?weights ~name:family ~size ()
  | Protocol.Session name -> (
      (* a session source outside SOLVE means "the session's current
         graph", snapshotted now *)
      match Service.find_session session.service name with
      | Ok s -> Ok (Api.session_graph s)
      | Error _ as e -> e)

let request_of_args session (a : Protocol.solve_args) =
  match resolve_source session a.Protocol.source with
  | Error e -> Error e
  | Ok g ->
      let deadline =
        Option.map
          (fun ms -> Unix.gettimeofday () +. (ms /. 1000.0))
          a.Protocol.deadline_ms
      in
      Ok
        (Request.make ~algorithm:a.Protocol.algorithm ~seed:a.Protocol.seed
           ?trees:a.Protocol.trees ~priority:a.Protocol.priority ?deadline g)

let handle_command session cmd =
  let io = session.io in
  match cmd with
  | Protocol.Nop -> None
  | Protocol.Ping ->
      io.write_line "PONG";
      None
  | Protocol.Help ->
      List.iter io.write_line Protocol.help_lines;
      None
  | Protocol.Quit ->
      io.write_line "BYE";
      Some Quit
  | Protocol.Shutdown ->
      io.write_line "BYE";
      Some Shutdown
  | Protocol.Stats ->
      (match
         "STATS "
         ^ Json.to_string (Metrics.to_json (Service.snapshot session.service))
       with
      | line -> io.write_line line
      | exception e -> err session "stats failed: %s" (Printexc.to_string e));
      None
  | Protocol.Graph_def { name; n; m } ->
      (match read_graph_def session ~name ~n ~m with
      | Ok g ->
          io.write_line
            (Printf.sprintf "OK graph %s n=%d m=%d hash=%s" name (Graph.n g)
               (Graph.m g)
               (Mincut_util.Hash.to_hex (Graph_key.structural_hash g)))
      | Error e -> err session "GRAPH %s: %s" name e);
      None
  | Protocol.Solve ({ source = Protocol.Session sname; _ } as args) ->
      (match
         Service.session_solve session.service sname
           ~algorithm:args.Protocol.algorithm ~seed:args.Protocol.seed
           ~trees:args.Protocol.trees
       with
      | Ok resp -> io.write_line ("OK " ^ Protocol.format_response resp)
      | Error e -> err session "%s" e
      | exception e -> err session "solve failed: %s" (Printexc.to_string e));
      None
  | Protocol.Solve args ->
      (match request_of_args session args with
      | Error e -> err session "%s" e
      | exception e -> err session "solve failed: %s" (Printexc.to_string e)
      | Ok req -> (
          match Service.solve session.service req with
          | resp -> io.write_line ("OK " ^ Protocol.format_response resp)
          | exception e -> err session "solve failed: %s" (Printexc.to_string e)));
      None
  | Protocol.Estimate { esource; eseed; etrials } ->
      (match resolve_source session esource with
      | Error e -> err session "%s" e
      | exception e -> err session "estimate failed: %s" (Printexc.to_string e)
      | Ok g -> (
          match Service.estimate session.service ~seed:eseed ?trials:etrials g with
          | r, elapsed_ms ->
              io.write_line ("OK " ^ Protocol.format_estimate ~elapsed_ms r)
          | exception e -> err session "estimate failed: %s" (Printexc.to_string e)));
      None
  | Protocol.Submit args ->
      (match request_of_args session args with
      | Error e -> err session "%s" e
      | exception e -> err session "submit failed: %s" (Printexc.to_string e)
      | Ok req -> (
          match Service.submit session.service req with
          | ticket ->
              Hashtbl.replace session.tickets ticket ();
              io.write_line (Printf.sprintf "QUEUED %d" ticket)
          | exception e ->
              err session "submit failed: %s" (Printexc.to_string e)));
      None
  | Protocol.Session_open { sname; ssource } ->
      (match resolve_source session ssource with
      | Error e -> err session "SESSION %s: %s" sname e
      | exception e ->
          err session "SESSION %s: %s" sname (Printexc.to_string e)
      | Ok g -> (
          match
            let s = Service.session_open session.service sname g in
            let h = Api.session_handle s in
            Printf.sprintf "OK session %s n=%d channels=%d lambda=%d hash=%s"
              sname (Handle.n h) (Handle.channels h) (Api.session_lambda s)
              (Hash.to_hex (Handle.digest h))
          with
          | line -> io.write_line line
          | exception e ->
              err session "SESSION %s: %s" sname (Printexc.to_string e)));
      None
  | Protocol.Delta_op { sname; dop } ->
      (match Service.session_delta session.service sname dop with
      | Error e -> err session "DELTA %s: %s" sname e
      | exception e -> err session "DELTA %s: %s" sname (Printexc.to_string e)
      | Ok (s, outcome, answer) ->
          let h = Api.session_handle s in
          io.write_line
            (Printf.sprintf
               "OK delta %s version=%d lambda=%d mode=%s n=%d channels=%d hash=%s"
               sname outcome.Handle.version answer.Api.lambda
               (Incremental.mode_name answer.Api.mode)
               (Handle.n h) (Handle.channels h)
               (Hash.to_hex (Handle.digest h))));
      None
  | Protocol.Compact sname ->
      (match Service.session_compact session.service sname with
      | Error e -> err session "COMPACT %s: %s" sname e
      | exception e -> err session "COMPACT %s: %s" sname (Printexc.to_string e)
      | Ok s ->
          let h = Api.session_handle s in
          io.write_line
            (Printf.sprintf "OK compact %s version=%d channels=%d hash=%s" sname
               (Handle.version h) (Handle.channels h)
               (Hash.to_hex (Handle.digest h))));
      None
  | Protocol.Flush ->
      (match Service.flush session.service with
      | { Service.answered; shed } ->
          List.iter
            (fun ticket ->
              Hashtbl.remove session.tickets ticket;
              io.write_line (Printf.sprintf "SHED %d" ticket))
            shed;
          List.iter
            (fun (ticket, resp) ->
              Hashtbl.remove session.tickets ticket;
              io.write_line
                (Printf.sprintf "RESULT %d %s" ticket (Protocol.format_response resp)))
            answered;
          io.write_line (Printf.sprintf "DONE %d" (List.length answered))
      | exception e -> err session "flush failed: %s" (Printexc.to_string e));
      None

let run service io =
  let session =
    { service; io; named = Hashtbl.create 8; tickets = Hashtbl.create 8 }
  in
  let rec loop () =
    match io.read_line () with
    | None -> Eof
    | Some line -> (
        match Protocol.parse_with_payload line with
        | Error (e, payload) ->
            (* a rejected GRAPH header's edge lines are payload, not
               requests *)
            err session "%s" e;
            drain session payload;
            loop ()
        | Ok cmd -> (
            match handle_command session cmd with
            | Some reason -> reason
            | None -> loop ()))
  in
  loop ()

let run_stdio service = ignore (run service (io_of_channels stdin stdout))

let run_socket service ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        let client, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr client in
        let oc = Unix.out_channel_of_descr client in
        let reason =
          Fun.protect
            ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
            (fun () -> run service (io_of_channels ic oc))
        in
        match reason with Shutdown -> () | Quit | Eof -> accept_loop ()
      in
      accept_loop ())
