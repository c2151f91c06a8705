(* Persistent work-stealing domain pool.

   One process-global runtime owns every worker domain; a [t] is just a
   width configuration over it.  Domains are spawned lazily the first
   time a map actually needs them, then parked on a condition variable
   between batches — a serve process or a bench loop pays spawn cost
   once, not per call.  A batch splits the job index range into one
   contiguous deque per participant; owners pop [grain]-sized chunks
   off the front, and a participant that runs dry steals the back half
   of the first non-empty deque in a fixed scan order.  Results land in
   a slot array indexed by job — the steal order decides who computes a
   slot, never what goes into it, which is the whole determinism
   argument (DESIGN.md §14).

   Synchronization is deliberately boring: every mutable runtime field
   is either an [Atomic] counter, confined behind the runtime mutex, or
   a per-deque mutex guarding two ints.  Helpers park with
   [Condition.wait] on the runtime mutex and drop and retake it around
   each batch's work, which the scoped [Lockcheck.with_lock] cannot
   express — so its raw [Mutex.create] sites are the allow-listed
   exception in .mincut-ast-allow, and all cross-domain hand-off of
   results happens-before the caller reads them via the runtime
   mutex. *)

type t = { width : int }

let sizing ~recommended = if recommended <= 1 then 1 else min 8 recommended

let recommended_workers () =
  sizing ~recommended:(Domain.recommended_domain_count ())

let create ?workers () =
  let w = match workers with Some w -> w | None -> recommended_workers () in
  { width = max 1 w }

let sequential = { width = 1 }

let workers t = t.width

(* ---- process-global counters (Atomic: safe under Domcheck) ---------- *)

let spawns_ctr = Atomic.make 0
let steals_ctr = Atomic.make 0
let tasks_ctr = Atomic.make 0
let batches_ctr = Atomic.make 0

type stats = { spawns : int; steals : int; tasks : int; batches : int }

let stats () =
  {
    spawns = Atomic.get spawns_ctr;
    steals = Atomic.get steals_ctr;
    tasks = Atomic.get tasks_ctr;
    batches = Atomic.get batches_ctr;
  }

(* Set on worker domains: a nested [map] issued from inside a task runs
   sequentially inline instead of deadlocking on the shared runtime. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* ---- per-participant deques ----------------------------------------- *)

(* A deque is a half-open index range [lo, hi) of jobs.  The owner pops
   chunks from the front; thieves split off the back half.  Two ints
   under a leaf mutex — chunks are whole CONGEST simulations, so
   contention on these locks is noise. *)
type deque = { dq_lock : Mutex.t; mutable lo : int; mutable hi : int }

let take_front d ~grain =
  Mutex.lock d.dq_lock;
  if d.lo >= d.hi then begin
    Mutex.unlock d.dq_lock;
    None
  end
  else begin
    let lo = d.lo in
    let k = min grain (d.hi - lo) in
    d.lo <- lo + k;
    Mutex.unlock d.dq_lock;
    Some (lo, lo + k)
  end

let steal_back d =
  Mutex.lock d.dq_lock;
  let len = d.hi - d.lo in
  if len <= 0 then begin
    Mutex.unlock d.dq_lock;
    None
  end
  else begin
    let k = (len + 1) / 2 in
    let hi = d.hi in
    d.hi <- hi - k;
    Mutex.unlock d.dq_lock;
    Some (hi - k, hi)
  end

(* Only ever called on the thief's own empty deque, and nothing but the
   owner can refill a deque, so overwriting [lo]/[hi] is safe. *)
let adopt d ~lo ~hi =
  Mutex.lock d.dq_lock;
  d.lo <- lo;
  d.hi <- hi;
  Mutex.unlock d.dq_lock

(* ---- batches and the global runtime --------------------------------- *)

type batch = {
  gen : int;             (* generation stamp: a helper joins each batch once *)
  bwidth : int;          (* participants, caller included *)
  grain : int;           (* owner chunk size popped per [take_front] *)
  run : int -> unit;     (* execute job i, store its result slot *)
  deques : deque array;  (* one per participant *)
  mutable joined : int;  (* helpers that picked this batch up *)
  mutable finished : int;  (* helpers done with it *)
}

type runtime = {
  lock : Mutex.t;             (* guards every mutable field below *)
  work_ready : Condition.t;   (* helpers park here between batches *)
  batch_done : Condition.t;   (* the caller waits here for its helpers *)
  submit_lock : Mutex.t;      (* serializes batches across calling domains *)
  mutable batch : batch option;
  mutable generation : int;
  mutable helpers : unit Domain.t list;
  mutable nhelpers : int;
  mutable stop : bool;        (* at_exit: park no more, return instead *)
}

(* Hard cap on helper domains: 16 participants total keeps the shared
   pool far under the OCaml runtime's domain limit no matter how many
   pool values ask for width. *)
let max_helpers = 15

let run_participant b ~me =
  let rec go () =
    match take_front b.deques.(me) ~grain:b.grain with
    | Some (lo, hi) ->
        for i = lo to hi - 1 do
          b.run i
        done;
        go ()
    | None -> hunt 1
  and hunt off =
    (* deterministic victim scan: me+1, me+2, ... — determinism of the
       results does not depend on it, but reproducible scan order keeps
       steal counts stable enough to assert on in tests *)
    if off < b.bwidth then
      match steal_back b.deques.((me + off) mod b.bwidth) with
      | Some (lo, hi) ->
          Atomic.incr steals_ctr;
          adopt b.deques.(me) ~lo ~hi;
          go ()
      | None -> hunt (off + 1)
  in
  go ()

(* Helper domain body.  Invariant: [r.lock] is held on entry to
   [helper_serve] and released before it returns.  A helper joins a
   batch at most once (generation stamp + joined quota), runs its
   participant loop unlocked, then reports in and parks again. *)
let rec helper_serve r last_gen =
  if r.stop then Mutex.unlock r.lock
  else
    match r.batch with
    | Some b when b.gen <> last_gen && b.joined < b.bwidth - 1 ->
        b.joined <- b.joined + 1;
        let me = b.joined in
        let gen = b.gen in
        Mutex.unlock r.lock;
        run_participant b ~me;
        Mutex.lock r.lock;
        b.finished <- b.finished + 1;
        if b.finished >= b.bwidth - 1 then Condition.signal r.batch_done;
        helper_serve r gen
    | _ ->
        Condition.wait r.work_ready r.lock;
        helper_serve r last_gen

let shutdown r =
  Mutex.lock r.lock;
  r.stop <- true;
  Condition.broadcast r.work_ready;
  let hs = r.helpers in
  Mutex.unlock r.lock;
  List.iter Domain.join hs

(* The single mutable anchor: the runtime hides behind one Atomic cell,
   created on first parallel use (never on sequential paths, so 1-core
   hosts and workers=1 deployments allocate no runtime at all). *)
let runtime_cell : runtime option Atomic.t = Atomic.make None

let get_runtime () =
  match Atomic.get runtime_cell with
  | Some r -> r
  | None ->
      let r =
        {
          lock = Mutex.create ();
          work_ready = Condition.create ();
          batch_done = Condition.create ();
          submit_lock = Mutex.create ();
          batch = None;
          generation = 0;
          helpers = [];
          nhelpers = 0;
          stop = false;
        }
      in
      if Atomic.compare_and_set runtime_cell None (Some r) then begin
        (* shut the parked helpers down when the process exits, so test
           and CLI runs terminate instead of leaking blocked domains *)
        at_exit (fun () -> shutdown r);
        r
      end
      else
        (* lost the installation race: the loser's mutexes are garbage *)
        (match Atomic.get runtime_cell with
        | Some r -> r
        | None -> assert false)

let ensure_helpers r wanted =
  let wanted = min wanted max_helpers in
  Mutex.lock r.lock;
  while r.nhelpers < wanted do
    (* capture the installed runtime directly: re-reading [runtime_cell]
       inside the domain body would put an assert on the worker's first
       instruction, and an exception there kills the domain silently *)
    let d =
      Domain.spawn (fun () ->
          Domain.DLS.set in_worker true;
          Mutex.lock r.lock;
          helper_serve r 0)
    in
    Atomic.incr spawns_ctr;
    r.helpers <- d :: r.helpers;
    r.nhelpers <- r.nhelpers + 1
  done;
  Mutex.unlock r.lock

let collect results =
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false (* every job index is claimed exactly once *))
    results

let parallel_map width f jobs =
  let n = Array.length jobs in
  let r = get_runtime () in
  (* one batch at a time on the shared runtime; concurrent callers from
     other domains queue here *)
  Mutex.lock r.submit_lock;
  ensure_helpers r (width - 1);
  let results = Array.make n None in
  let run i =
    Atomic.incr tasks_ctr;
    results.(i) <-
      Some (match f jobs.(i) with v -> Ok v | exception e -> Error e)
  in
  let grain = max 1 (n / (4 * width)) in
  let deques =
    Array.init width (fun k ->
        { dq_lock = Mutex.create (); lo = k * n / width; hi = (k + 1) * n / width })
  in
  Mutex.lock r.lock;
  r.generation <- r.generation + 1;
  let b =
    {
      gen = r.generation;
      bwidth = width;
      grain;
      run;
      deques;
      joined = 0;
      finished = 0;
    }
  in
  r.batch <- Some b;
  Atomic.incr batches_ctr;
  Condition.broadcast r.work_ready;
  Mutex.unlock r.lock;
  run_participant b ~me:0;
  (* helpers only stop once nothing is left to claim, and every claimed
     job is finished by its claimant before it stops — so all helpers
     finished implies every slot is filled *)
  Mutex.lock r.lock;
  while b.finished < b.bwidth - 1 do
    Condition.wait r.batch_done r.lock
  done;
  r.batch <- None;
  Mutex.unlock r.lock;
  Mutex.unlock r.submit_lock;
  collect results

let map t f jobs =
  let n = Array.length jobs in
  if n = 0 then [||]
  else
    let width = min (min t.width n) (max_helpers + 1) in
    if width <= 1 || Domain.DLS.get in_worker then
      Array.map
        (fun j ->
          Atomic.incr tasks_ctr;
          f j)
        jobs
    else parallel_map width f jobs
