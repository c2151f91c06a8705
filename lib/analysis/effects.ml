(* Effect-class inference over the call graph.

   Every def gets a class in the four-point lattice

     Pure < Det_stateful < Global_mutable < Clock_random_io

   intrinsically from its body (externals table, global accesses,
   mutation syntax), then propagated as a max over resolved callees to a
   fixpoint.  The enforced rule: everything reachable from a CONGEST
   step handler — the program-literal defs plus all of
   [lib/congest/primitives.ml] and [lib/congest/pipeline.ml] — must sit
   in the two deterministic classes.  This is the static complement of
   the runtime [Sanitize] pass: the sanitizer proves the shipped runs it
   saw were order-independent; this proves no reachable code *can*
   consult a clock, ambient randomness, I/O, or unsynchronized global
   state, on any path, run or not.

   Externals (unresolved names) classify by table, defaulting to [Pure]:
   the table must therefore name every impure corner of the stdlib the
   repo could plausibly touch, and a def whose inference is genuinely
   too coarse can carry [[@mincut.effect "<class>"]] to pin its class
   (annotated defs do not inherit from callees). *)

type cls = Pure | Det_stateful | Global_mutable | Clock_random_io

let rank = function
  | Pure -> 0
  | Det_stateful -> 1
  | Global_mutable -> 2
  | Clock_random_io -> 3

let cls_name = function
  | Pure -> "pure"
  | Det_stateful -> "deterministic-stateful"
  | Global_mutable -> "global-mutable"
  | Clock_random_io -> "clock-random-io"

let cls_of_name = function
  | "pure" -> Some Pure
  | "deterministic-stateful" -> Some Det_stateful
  | "global-mutable" -> Some Global_mutable
  | "clock-random-io" -> Some Clock_random_io
  | _ -> None

let deterministic c = rank c <= rank Det_stateful

(* ---- intrinsic classification ------------------------------------------ *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* exact names in the worst class *)
let io_exact =
  [
    "Sys.time"; "Sys.getenv"; "Sys.getenv_opt"; "Sys.command";
    "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Hashtbl.randomize";
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_float"; "print_char"; "prerr_string"; "prerr_endline";
    "prerr_newline"; "read_line"; "read_int"; "read_int_opt";
    "input_line"; "input_value"; "input_char"; "input_byte";
    "really_input_string"; "open_in"; "open_in_bin"; "open_out";
    "open_out_bin"; "close_in"; "close_out"; "output_string";
    "output_char"; "output_byte"; "output_value"; "flush"; "flush_all";
    "stdin"; "stdout"; "stderr"; "exit"; "at_exit";
    "Printf.printf"; "Printf.eprintf"; "Printf.fprintf";
    "Format.printf"; "Format.eprintf"; "Format.fprintf";
    "Format.print_string"; "Format.print_newline"; "Format.print_flush";
    "Filename.temp_file"; "Filename.open_temp_file";
    "Printexc.print_backtrace"; "Printexc.get_callstack";
  ]

let io_prefix =
  [ "Unix."; "Gc."; "Thread."; "Event."; "In_channel."; "Out_channel."; "Sys.Signal" ]

let shared_prefix = [ "Mutex."; "Condition."; "Semaphore." ]

let stateful_exact =
  [ ":="; "!"; "incr"; "decr"; "ref" ]

let stateful_prefix =
  [
    "Hashtbl."; "Bytes."; "Buffer."; "Queue."; "Stack."; "Atomic.";
    "Weak."; "Domain.DLS."; "Random.State.";
  ]

let stateful_array =
  [ "Array.set"; "Array.fill"; "Array.blit"; "Array.sort"; "Array.unsafe_set" ]

(* classification of one unresolved (external) name; callers strip
   [Stdlib.] before asking *)
let classify_external name =
  if List.mem name io_exact then Clock_random_io
  else if has_prefix ~prefix:"Random.State." name then Det_stateful
  else if name = "Random" || has_prefix ~prefix:"Random." name then
    Clock_random_io
  else if has_prefix ~prefix:"Domain.DLS." name then Det_stateful
  else if has_prefix ~prefix:"Domain." name then Clock_random_io
  else if List.exists (fun p -> has_prefix ~prefix:p name) io_prefix then
    Clock_random_io
  else if List.exists (fun p -> has_prefix ~prefix:p name) shared_prefix then
    Global_mutable
  else if
    List.mem name stateful_exact
    || List.mem name stateful_array
    || List.exists (fun p -> has_prefix ~prefix:p name) stateful_prefix
  then Det_stateful
  else Pure

type culprit = {
  cname : string;  (** offending name (external, or global id) *)
  cfile : string;
  cline : int;
  ccol : int;
  creason : string;
}

type info = { cls : cls; culprit : culprit option }

let intrinsic cg (d : Callgraph.def) =
  let cls = ref (if d.Callgraph.mutates then Det_stateful else Pure) in
  let culprit = ref None in
  let bump c (r : Callgraph.refsite) reason name =
    if rank c > rank !cls then begin
      cls := c;
      culprit :=
        Some
          {
            cname = name;
            cfile = d.Callgraph.file;
            cline = r.Callgraph.rline;
            ccol = r.Callgraph.rcol;
            creason = reason;
          }
    end
  in
  List.iter
    (fun (r : Callgraph.refsite) ->
      match Callgraph.resolve cg ~from:d r.Callgraph.name with
      | Some id -> (
          match Callgraph.find_global cg id with
          | Some g -> (
              match g.Callgraph.gkind with
              | Callgraph.Atomic | Callgraph.Dls ->
                  bump Det_stateful r "synchronized global" id
              | _ ->
                  bump Global_mutable r
                    (Printf.sprintf "top-level %s"
                       (Callgraph.global_kind_name g.Callgraph.gkind))
                    id)
          | None -> () (* def→def edges contribute during propagation *))
      | None ->
          let c = classify_external r.Callgraph.name in
          if rank c > rank Pure then
            bump c r (cls_name c) r.Callgraph.name)
    d.Callgraph.refs;
  { cls = !cls; culprit = !culprit }

(* ---- propagation ------------------------------------------------------- *)

let classify cg =
  let info : (string, info) Hashtbl.t = Hashtbl.create 512 in
  let defs = Callgraph.defs_in_order cg in
  List.iter
    (fun (d : Callgraph.def) ->
      let i =
        match Option.bind d.Callgraph.effect_annot cls_of_name with
        | Some c -> { cls = c; culprit = None }
        | None -> intrinsic cg d
      in
      Hashtbl.replace info d.Callgraph.id i)
    defs;
  let annotated (d : Callgraph.def) =
    match Option.bind d.Callgraph.effect_annot cls_of_name with
    | Some _ -> true
    | None -> false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (d : Callgraph.def) ->
        if not (annotated d) then
          List.iter
            (fun (callee, (r : Callgraph.refsite)) ->
              match Hashtbl.find_opt info callee with
              | Some ci when rank ci.cls > rank (Hashtbl.find info d.Callgraph.id).cls
                ->
                  Hashtbl.replace info d.Callgraph.id
                    {
                      cls = ci.cls;
                      culprit =
                        Some
                          {
                            cname = callee;
                            cfile = d.Callgraph.file;
                            cline = r.Callgraph.rline;
                            ccol = r.Callgraph.rcol;
                            creason = "via call";
                          };
                    };
                  changed := true
              | _ -> ())
            (Callgraph.callees cg d))
      defs
  done;
  info

(* ---- the step-handler rule --------------------------------------------- *)

let is_congest_core (d : Callgraph.def) =
  let f = d.Callgraph.file in
  let suffix s =
    String.length f >= String.length s
    && String.sub f (String.length f - String.length s) (String.length s) = s
  in
  suffix "lib/congest/primitives.ml" || suffix "lib/congest/pipeline.ml"

let roots cg =
  List.filter_map
    (fun (d : Callgraph.def) ->
      if d.Callgraph.programs <> [] || is_congest_core d then
        Some d.Callgraph.id
      else None)
    (Callgraph.defs_in_order cg)

(* walk from a bad root to the nearest def whose own intrinsic (or
   annotation) carries the bad class, so the finding lands on the
   offending reference, not on the handler *)
let witness cg info root =
  let bad c = not (deterministic c) in
  let visited = Hashtbl.create 64 in
  let rec hunt chain id =
    if Hashtbl.mem visited id then None
    else begin
      Hashtbl.replace visited id ();
      match (Callgraph.find_def cg id, Hashtbl.find_opt info id) with
      | Some d, Some i when bad i.cls -> (
          match i.culprit with
          | Some c when c.creason <> "via call" ->
              Some (List.rev (id :: chain), i.cls, c)
          | _ ->
              (* class came from a callee; follow the worst edge *)
              let next =
                List.filter
                  (fun (callee, _) ->
                    match Hashtbl.find_opt info callee with
                    | Some ci -> bad ci.cls
                    | None -> false)
                  (Callgraph.callees cg d)
              in
              List.find_map (fun (callee, _) -> hunt (id :: chain) callee) next
          )
      | _ -> None
    end
  in
  hunt [] root

let check cg =
  let info = classify cg in
  let findings = ref [] in
  (* invalid annotations are findings too: a typo must not silently
     disable enforcement *)
  List.iter
    (fun (d : Callgraph.def) ->
      match d.Callgraph.effect_annot with
      | Some s when cls_of_name s = None ->
          findings :=
            {
              Lint.file = d.Callgraph.file;
              line = d.Callgraph.line;
              col = 0;
              rule = "step-effect";
              message =
                Printf.sprintf
                  "unknown [@mincut.effect %S]; expected pure, \
                   deterministic-stateful, global-mutable or clock-random-io"
                  s;
            }
            :: !findings
      | _ -> ())
    (Callgraph.defs_in_order cg);
  List.iter
    (fun root ->
      match Hashtbl.find_opt info root with
      | Some i when not (deterministic i.cls) -> (
          match witness cg info root with
          | Some (chain, cls, c) ->
              findings :=
                {
                  Lint.file = c.cfile;
                  line = c.cline;
                  col = c.ccol;
                  rule = "step-effect";
                  message =
                    Printf.sprintf
                      "step handler %s reaches %s (%s, %s): %s" root c.cname
                      (cls_name cls) c.creason
                      (String.concat " -> " chain);
                }
                :: !findings
          | None ->
              let d = Option.get (Callgraph.find_def cg root) in
              findings :=
                {
                  Lint.file = d.Callgraph.file;
                  line = d.Callgraph.line;
                  col = 0;
                  rule = "step-effect";
                  message =
                    Printf.sprintf "step handler %s classified %s" root
                      (cls_name i.cls);
                }
                :: !findings)
      | _ -> ())
    (roots cg);
  List.rev !findings
