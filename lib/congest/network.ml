module Graph = Mincut_graph.Graph

type violation_kind =
  | Oversized_message
  | Non_neighbor_send
  | Duplicate_send
  | Edge_overload
  | Order_dependence
  | Round_dependence
  | Watchdog

type violation = {
  kind : violation_kind;
  round : int;
  sender : int option;
  receiver : int option;
  words : int option;
  budget : int option;
}

exception Model_violation of violation

let violation_message v =
  let endpoint = function Some x -> string_of_int x | None -> "-" in
  match v.kind with
  | Oversized_message ->
      Printf.sprintf "round %d: node %s message of %s words to %s exceeds budget %s"
        v.round (endpoint v.sender)
        (endpoint v.words) (endpoint v.receiver) (endpoint v.budget)
  | Non_neighbor_send ->
      Printf.sprintf "round %d: node %s sent to non-neighbor %s" v.round
        (endpoint v.sender) (endpoint v.receiver)
  | Duplicate_send ->
      Printf.sprintf "round %d: node %s sent twice to %s" v.round
        (endpoint v.sender) (endpoint v.receiver)
  | Edge_overload ->
      Printf.sprintf
        "round %d: edge %s->%s carried %s words, over the strict per-edge cap %s"
        v.round (endpoint v.sender) (endpoint v.receiver) (endpoint v.words)
        (endpoint v.budget)
  | Order_dependence ->
      Printf.sprintf
        "round %d: node %s diverged under a permuted inbox order \
         (state/outbox depends on delivery order)"
        v.round (endpoint v.sender)
  | Round_dependence ->
      Printf.sprintf
        "round %d: node %s acted on an empty inbox after an idle step \
         (an empty-inbox step must depend only on node and state)"
        v.round (endpoint v.sender)
  | Watchdog ->
      Printf.sprintf "watchdog: exceeded %s rounds" (endpoint v.budget)

let () =
  Printexc.register_printer (function
    | Model_violation v -> Some ("Model_violation: " ^ violation_message v)
    | _ -> None)

let violate ?sender ?receiver ?words ?budget kind ~round =
  raise (Model_violation { kind; round; sender; receiver; words; budget })

type ('state, 'msg) program = {
  initial : int -> 'state;
  step :
    node:int -> round:int -> inbox:(int * 'msg) list -> 'state -> 'state * (int * 'msg) list;
  halted : 'state -> bool;
}

type ('state, 'msg) probe =
  node:int ->
  round:int ->
  inbox:(int * 'msg) list ->
  'state ->
  (int * 'msg) list ->
  unit

type audit = {
  rounds : int;
  total_messages : int;
  total_words : int;
  max_words : int;
  max_edge_load : int;
  max_edge_words : int;
  messages_per_round : int array;
}

(* Deterministic Fisher-Yates driven by an inline 48-bit LCG, seeded
   per (node, round) so the adversarial permutation the sanitizer tries
   is reproducible and differs across steps.  The engine must not
   consume any global randomness: two runs of the same program must
   permute identically. *)
let shuffle ~seed xs =
  let a = Array.of_list xs in
  let state = ref ((seed * 2654435761) land max_int) in
  let next () =
    state := ((!state * 25214903917) + 11) land max_int;
    !state
  in
  for i = Array.length a - 1 downto 1 do
    let j = next () mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Shadow execution: re-run one step with adversarially permuted inbox
   orders and demand a byte-identical outcome.  States are compared by
   Marshal image (hence the canonical-representation requirement
   documented on [Config.sanitize]); outboxes are compared as multisets
   by sorting on (destination, payload bytes); the halted predicate is
   compared directly since it gates future stepping. *)
let shadow_check ~prog ~node ~round ~inbox st state' outs =
  let canon outs =
    List.sort
      (fun (d, p) (d', p') ->
        let c = Int.compare d d' in
        if c <> 0 then c else String.compare p p')
      (List.map (fun (d, p) -> (d, Marshal.to_string p [])) outs)
  in
  let base_state = Marshal.to_string state' [] in
  let base_outs = canon outs in
  let base_halted = prog.halted state' in
  let replay inbox' =
    let s2, o2 = prog.step ~node ~round ~inbox:inbox' st in
    if
      (not (String.equal (Marshal.to_string s2 []) base_state))
      || (not (List.equal (fun (d, p) (d', p') -> d = d' && String.equal p p')
                 (canon o2) base_outs))
      || not (Bool.equal (prog.halted s2) base_halted)
    then violate Order_dependence ~round ~sender:node
  in
  replay (List.rev inbox);
  replay (shuffle ~seed:((node * 1_000_003) + round) inbox)

(* Sanitize mode's check of the idle contract.  A sleeping node is
   stepped anyway, and the step must send nothing and leave the
   marshalled state as it was; otherwise the program reads the round as
   a timer, and sleeping the node would change the run. *)
let idle_check ~node ~round st0 state' outs =
  let same_state =
    state' == st0 || String.equal (Marshal.to_string state' []) (Marshal.to_string st0 [])
  in
  match outs with
  | [] when same_state -> ()
  | _ -> violate Round_dependence ~round ~sender:node

(* Per-domain scratch for [drive]'s monomorphic round structures.

   A solve is hundreds of [drive] calls over small graphs, so the
   per-call [Array.make]s of the slot registries dominated the driver's
   minor-heap traffic.  The int/bool scratch is domain-local (each pool
   worker reuses its own across calls; no sharing, no locks) and
   versioned so reuse needs no per-call refill of anything sized by m:

   - [sent_round] stores [epoch + r]; [epoch] advances past every stamp
     the previous call wrote (see [finally]), so stale entries can never
     collide with the current call's duplicate check.  Zero-initialized
     growth is safe because [epoch] starts at 1.
   - [slot_load] counts the messages a slot carried in this call.  It is
     valid only where [sent_round] holds a stamp of this call
     ([>= epoch]); elsewhere it is stale and reads as 0, so the first
     send of a call overwrites it instead of a fill on entry.
   - [from_slot] / [to_slot] remember, per node, the slot of its last
     send and the slot last used to reach it.  [deliver] validates an
     entry before using it, so any value (another call's, another
     graph's) is safe and they are never reset.
   - [halted] and [asleep] are per-node flags, set on entry: O(n).
   - [active] / [active_next] are the nodes to visit this round and
     next, 32 nodes to a word, cleared on entry: O(n/32).  The scan
     clears each word of [active] as it reads it, so after a round it
     is empty and becomes the next round's [active_next] by a swap.
   - [counts] is a growable per-round message-count buffer replacing
     the old cons-per-round list.

   The polymorphic structures (states, double-buffered mailboxes) and
   the message payloads still allocate per call — they carry the 'msg
   type and cannot be cached monomorphically. *)
type scratch = {
  mutable sent_round : int array;  (* per slot: epoch-stamped last-send round *)
  mutable slot_load : int array;   (* per slot: messages this call *)
  mutable halted : bool array;     (* per node: monotone halt flags *)
  mutable asleep : bool array;     (* per node: idle until mail arrives *)
  mutable active : int array;      (* per 32 nodes: visit this round *)
  mutable active_next : int array; (* per 32 nodes: visit next round *)
  mutable from_slot : int array;   (* per node: slot of its last send *)
  mutable to_slot : int array;     (* per node: slot last used to reach it *)
  mutable counts : int array;      (* per round: messages sent *)
  mutable epoch : int;             (* monotone across calls; >= 1 *)
  mutable in_use : bool;           (* re-entrant drive gets fresh scratch *)
}

let fresh_scratch () =
  {
    sent_round = [||];
    slot_load = [||];
    halted = [||];
    asleep = [||];
    active = [||];
    active_next = [||];
    from_slot = [||];
    to_slot = [||];
    counts = [||];
    epoch = 1;
    in_use = false;
  }

let scratch_key : scratch Domain.DLS.key = Domain.DLS.new_key fresh_scratch

let grown_int a len = Array.make (max len (2 * Array.length a)) 0

(* put node [v] in the bitset [bits], 32 nodes to a word *)
let mark bits v = bits.(v lsr 5) <- bits.(v lsr 5) lor (1 lsl (v land 31))

(* Channel lookup in a sender's CSR row [nbr.(lo) .. nbr.(hi - 1)],
   sorted by (neighbor, edge id): the first slot whose neighbor is at
   least [dst], or [hi], which is the channel's first slot when [dst]
   is a neighbor. *)
let rec bisect nbr dst lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if nbr.(mid) < dst then bisect nbr dst (mid + 1) hi else bisect nbr dst lo mid

(* Shared driver.  [stop] decides termination given (round, all_halted,
   traffic_pending).

   Hot-path layout: every per-round structure is a flat array indexed
   by the graph's CSR slots or by node — reused across calls through
   the domain-local [scratch] — so a round allocates nothing beyond the
   message payloads themselves, and a whole run allocates little
   beyond states and mailboxes.  Apart from O(n) flags on entry, a
   call's work follows its steps and its messages: a round costs
   O(visited nodes + n/32).

   - Active set: a round visits only the nodes marked in [active].  A
     node is marked for round r + 1 when a message is delivered to it
     in round r, or when it steps in round r and neither halts nor
     falls asleep; round 0 marks every node that has not halted.  Any
     other node would have nothing to do: it is halted, or asleep with
     an empty inbox.  Sanitize mode marks every node that has not
     halted, so sleeping nodes are still stepped and checked.  The scan
     tests the 32 bits of a non-zero word one by one, from the top.
   - Mailboxes are double-buffered list arrays.  Senders are stepped in
     descending node order, so consing onto the destination's next-round
     buffer yields an inbox already in ascending sender order — the
     per-node sort of the seed driver disappears.  (Step calls within a
     round are independent, so the processing order is unobservable
     except through delivery order, which this preserves.)  Each inbox
     is emptied as it is read, halted nodes' included (their mail is
     dropped, and the delivery marked them), so the drained array
     becomes the next round's outbox by a reference swap instead of an
     n-cell copy.
   - An idle node costs O(1) and allocates nothing: a step that returns
     its state physically unchanged ([state' == st0]) skips the state
     store and the [prog.halted] call.  [halted] is a pure function of
     the state and the node was stepped because its flag is false, so
     the flag cannot change.
   - Wake-on-mail: after round 0, a step with an empty inbox that
     returns its state physically unchanged and sends nothing puts the
     node to sleep, and a sleeping node is not stepped until mail
     arrives.  By the contract on [program.step] such a step depends
     only on node and state, so every skipped step would have repeated
     it.  Sanitize mode steps sleeping nodes anyway and checks that.
   - The duplicate-send registry and per-directed-edge counters are
     arrays indexed by CSR slot; storing the epoch-stamped round of the
     last send makes entries self-invalidating, so there is no per-round
     or per-call reset at all, and [max_edge_load] is kept at delivery.
   - A message's channel is found from memory first: the slot the
     sender used last (a pipeline to one neighbour), the slot last used
     to reach [dst] (a parent streaming to several children), then the
     slot right after the sender's last (a flood addressing its
     neighbours in ascending order).  On a miss it bisects the sender's
     CSR row, sorted by (neighbor, edge id), O(log deg): nothing per
     row, since tree programs address a few of a node's neighbors, not
     all of them.  The memo check is written inline: as a local closure
     it allocated once per message.
   - Message validation and delivery run in [deliver], and a node's
     visit in [visit]: one closure each per call rather than one per
     stepped node per round, so the round loop allocates nothing. *)
let drive ?(cfg = Config.default) ?probe ~words ~result ~stop g prog =
  let n = Graph.n g in
  let off = Graph.csr_offsets g in
  let nbr = Graph.csr_neighbors g in
  let slots = Array.length nbr in
  let sc0 = Domain.DLS.get scratch_key in
  let sc = if sc0.in_use then fresh_scratch () else sc0 in
  sc.in_use <- true;
  if Array.length sc.sent_round < slots then begin
    sc.sent_round <- grown_int sc.sent_round slots;
    sc.slot_load <- grown_int sc.slot_load slots
  end;
  if Array.length sc.halted < n then begin
    let len = max n (2 * Array.length sc.halted) in
    sc.halted <- Array.make len false;
    sc.asleep <- Array.make len false;
    sc.from_slot <- Array.make len 0;
    sc.to_slot <- Array.make len 0
  end;
  let bit_words = (n + 31) lsr 5 in
  if Array.length sc.active < bit_words then begin
    let len = max bit_words (2 * Array.length sc.active) in
    sc.active <- Array.make len 0;
    sc.active_next <- Array.make len 0
  end;
  if Array.length sc.counts = 0 then sc.counts <- Array.make 64 0;
  let epoch = sc.epoch in
  let sent_round = sc.sent_round in
  let slot_load = sc.slot_load in
  let halted = sc.halted in
  let asleep = sc.asleep in
  let from_slot = sc.from_slot in
  let to_slot = sc.to_slot in
  let active = ref sc.active and active_next = ref sc.active_next in
  Array.fill !active 0 bit_words 0;
  Array.fill !active_next 0 bit_words 0;
  let states = Array.init n prog.initial in
  let cur : (int * _) list array ref = ref (Array.make n []) in
  let next : (int * _) list array ref = ref (Array.make n []) in
  (* halted is a pure function of the node state, and halted nodes never
     step, so the flag set is monotone: track it incrementally instead
     of rescanning all states every round *)
  let live = ref 0 in
  for v = 0 to n - 1 do
    let h = prog.halted states.(v) in
    halted.(v) <- h;
    asleep.(v) <- false;
    if not h then begin
      incr live;
      mark !active v
    end
  done;
  let pending = ref false in
  let total_messages = ref 0 in
  let total_words = ref 0 in
  let sent_count = ref 0 in
  let max_words = ref 0 in
  let max_edge_load = ref 0 in
  let max_edge_words = ref 0 in
  let last_traffic_round = ref (-1) in
  let round = ref 0 in
  let note_round_count r c =
    if r >= Array.length sc.counts then begin
      let bigger = Array.make (2 * Array.length sc.counts) 0 in
      Array.blit sc.counts 0 bigger 0 (Array.length sc.counts);
      sc.counts <- bigger
    end;
    sc.counts.(r) <- c
  in
  let rec deliver outbox marks v r outs =
    match outs with
    | [] -> ()
    | (dst, payload) :: rest ->
        let lo = off.(v) and hi = off.(v + 1) in
        (* a remembered slot counts only if it lies in v's row, leads
           to dst and is the channel's first parallel slot *)
        let s = from_slot.(v) in
        let s =
          if s >= lo && s < hi && nbr.(s) = dst && (s = lo || nbr.(s - 1) <> dst) then s
          else
            let t = if dst >= 0 && dst < n then to_slot.(dst) else -1 in
            if t >= lo && t < hi && nbr.(t) = dst && (t = lo || nbr.(t - 1) <> dst) then t
            else
              let t = s + 1 in
              if t > lo && t < hi && nbr.(t) = dst && nbr.(t - 1) <> dst then t
              else bisect nbr dst lo hi
        in
        if s = hi || nbr.(s) <> dst then
          violate Non_neighbor_send ~round:r ~sender:v ~receiver:dst;
        if sent_round.(s) = epoch + r then
          violate Duplicate_send ~round:r ~sender:v ~receiver:dst;
        let w = words payload in
        if w > cfg.Config.words_per_message then
          violate Oversized_message ~round:r ~sender:v ~receiver:dst ~words:w
            ~budget:cfg.Config.words_per_message;
        (* one message per channel per round (the duplicate check
           above), so the per-round aggregate load on a directed
           edge is exactly this payload *)
        (match cfg.Config.strict_edge_words with
        | Some cap when w > cap ->
            violate Edge_overload ~round:r ~sender:v ~receiver:dst ~words:w
              ~budget:cap
        | _ -> ());
        let load = if sent_round.(s) < epoch then 1 else slot_load.(s) + 1 in
        slot_load.(s) <- load;
        if load > !max_edge_load then max_edge_load := load;
        sent_round.(s) <- epoch + r;
        from_slot.(v) <- s;
        to_slot.(dst) <- s;
        incr total_messages;
        incr sent_count;
        total_words := !total_words + w;
        if w > !max_words then max_words := w;
        if w > !max_edge_words then max_edge_words := w;
        last_traffic_round := r;
        outbox.(dst) <- (v, payload) :: outbox.(dst);
        mark marks dst;
        pending := true;
        deliver outbox marks v r rest
  in
  let visit inboxes outbox marks r v =
    let inbox = inboxes.(v) in
    (match inbox with [] -> () | _ -> inboxes.(v) <- []);
    if not halted.(v) then begin
      (match inbox with
      | [] when asleep.(v) ->
          if cfg.Config.sanitize then begin
            let st0 = states.(v) in
            let state', outs = prog.step ~node:v ~round:r ~inbox st0 in
            (match probe with
            | None -> ()
            | Some f -> f ~node:v ~round:r ~inbox state' outs);
            idle_check ~node:v ~round:r st0 state' outs
          end
      | _ ->
          let st0 = states.(v) in
          let state', outs = prog.step ~node:v ~round:r ~inbox st0 in
          if cfg.Config.sanitize then begin
            match inbox with
            | [] | [ _ ] -> ()
            | _ -> shadow_check ~prog ~node:v ~round:r ~inbox st0 state' outs
          end;
          (match probe with
          | None -> ()
          | Some f -> f ~node:v ~round:r ~inbox state' outs);
          if state' != st0 then begin
            states.(v) <- state';
            if prog.halted state' then begin
              halted.(v) <- true;
              decr live
            end
          end;
          asleep.(v) <- r > 0 && state' == st0 && inbox == [] && outs == [];
          deliver outbox marks v r outs);
      if (not halted.(v)) && (cfg.Config.sanitize || not asleep.(v)) then mark marks v
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* advance past every sent_round stamp this call wrote, even on a
         violation escape, and hand the scratch back *)
      sc.epoch <- epoch + !round + 2;
      sc.in_use <- false)
  @@ fun () ->
  while not (stop ~round:!round ~all_halted:(!live = 0 && not !pending)) do
    if !round >= cfg.Config.max_rounds then
      violate Watchdog ~round:!round ~budget:cfg.Config.max_rounds;
    let r = !round in
    let inboxes = !cur and outbox = !next in
    let bits = !active and marks = !active_next in
    sent_count := 0;
    pending := false;
    for w = bit_words - 1 downto 0 do
      let x = bits.(w) in
      if x <> 0 then begin
        bits.(w) <- 0;
        let base = w lsl 5 in
        for b = 31 downto 0 do
          if x land (1 lsl b) <> 0 then visit inboxes outbox marks r (base + b)
        done
      end
    done;
    (* swap buffers: the outbox already holds ascending-sender inboxes,
       and every inbox was drained above; the scan emptied [bits] *)
    cur := outbox;
    next := inboxes;
    active := marks;
    active_next := bits;
    note_round_count r !sent_count;
    incr round
  done;
  (* Reduce every state, then drop them from [states] (all but node 0's,
     which fills every slot) and any undelivered mail from the mailbox:
     once n > 256 these arrays live in the major heap, and a slot still
     pointing at a young value when the next minor collection runs would
     promote it, since the remembered set keeps the dead array's slots
     as roots. *)
  let out = Array.init n (fun v -> result v states.(v)) in
  if n > 0 then Array.fill states 1 (n - 1) states.(0);
  if !pending then Array.fill !cur 0 n [];
  let audit =
    {
      rounds = !round;
      total_messages = !total_messages;
      total_words = !total_words;
      max_words = !max_words;
      max_edge_load = !max_edge_load;
      max_edge_words = !max_edge_words;
      messages_per_round = Array.sub sc.counts 0 !round;
    }
  in
  (out, audit, !last_traffic_round)

let run ?cfg ?probe ~words ~result g prog =
  let out, audit, _ =
    drive ?cfg ?probe ~words ~result
      ~stop:(fun ~round:_ ~all_halted -> all_halted)
      g prog
  in
  (out, audit)

let run_bounded ?cfg ?probe ~words ~result ~rounds g prog =
  let out, audit, last_traffic =
    drive ?cfg ?probe ~words ~result
      ~stop:(fun ~round ~all_halted:_ -> round >= rounds)
      g prog
  in
  (* effective completion time: the delivery round of the last message *)
  (out, { audit with rounds = (if last_traffic < 0 then 0 else last_traffic + 2) })
