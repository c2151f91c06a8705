module Lockcheck = Mincut_parallel.Lockcheck

type ticket = int

type entry = { ticket : ticket; request : Request.t; key : string }

type t = {
  key_of : Request.t -> string;
  lock : Lockcheck.t;  (* rank 10: acquired before the cache's (20) *)
  mutable next_ticket : int;
  mutable entries : entry list;  (* reverse submission order *)
}

let create ~key () =
  {
    key_of = key;
    lock = Lockcheck.create ~name:"serve.scheduler" ~order:10 ();
    next_ticket = 0;
    entries = [];
  }

let submit t request =
  Lockcheck.with_lock t.lock (fun () ->
      let ticket = t.next_ticket in
      t.next_ticket <- ticket + 1;
      t.entries <- { ticket; request; key = t.key_of request } :: t.entries;
      ticket)

let pending t = Lockcheck.with_lock t.lock (fun () -> List.length t.entries)

let depth t =
  Lockcheck.with_lock t.lock (fun () ->
      let keys = Hashtbl.create 16 in
      List.iter (fun e -> Hashtbl.replace keys e.key ()) t.entries;
      Hashtbl.length keys)

let drain t =
  let entries =
    Lockcheck.with_lock t.lock (fun () ->
        let entries = List.rev t.entries in
        t.entries <- [];
        entries)
  in
  (* group by key, keeping submission order within each group; pure
     post-processing on the drained snapshot, outside the lock *)
  let groups : (string, entry list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun e ->
      match Hashtbl.find_opt groups e.key with
      | Some cell -> cell := e :: !cell
      | None ->
          Hashtbl.add groups e.key (ref [ e ]);
          order := e.key :: !order)
    entries;
  let batches =
    List.rev_map
      (fun key ->
        let members = List.rev !(Hashtbl.find groups key) in
        (* representative: best member under the scheduling order *)
        let best =
          List.fold_left
            (fun acc e ->
              if Request.compare_order (e.ticket, e.request) acc < 0 then
                (e.ticket, e.request)
              else acc)
            (let e = List.hd members in
             (e.ticket, e.request))
            (List.tl members)
        in
        (best, List.map (fun e -> (e.ticket, e.request)) members))
      !order
  in
  batches
  |> List.sort (fun (a, _) (b, _) -> Request.compare_order a b)
  |> List.map (fun ((_, request), members) -> (members, request))
