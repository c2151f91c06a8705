(* Effect-class inference over the call graph.

   Every def gets a class in the four-point lattice

     Pure < Det_stateful < Global_mutable < Clock_random_io

   intrinsically from its body (externals table, global accesses,
   mutation syntax), then propagated as a max over resolved callees to a
   fixpoint by [Callgraph.solve].  The enforced rule: everything
   reachable from a CONGEST step handler — the program-literal defs
   plus all of [lib/congest/primitives.ml] and
   [lib/congest/pipeline.ml] — must sit in the two deterministic
   classes.  This is the static complement of
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
  let under prefix = String.starts_with ~prefix name in
  if List.mem name io_exact then Clock_random_io
  else if under "Random.State." then Det_stateful
  else if name = "Random" || under "Random." then Clock_random_io
  else if under "Domain.DLS." then Det_stateful
  else if under "Domain." then Clock_random_io
  else if List.exists under io_prefix then Clock_random_io
  else if List.exists under shared_prefix then Global_mutable
  else if
    List.mem name stateful_exact
    || List.mem name stateful_array
    || List.exists under stateful_prefix
  then Det_stateful
  else Pure

type culprit = {
  cname : string;  (** offending name (external, or global id) *)
  cfile : string;
  cline : int;
  ccol : int;
  creason : string;
}

type info = { cls : cls; culprit : culprit option; via : string option }

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
  { cls = !cls; culprit = !culprit; via = None }

(* ---- propagation ------------------------------------------------------- *)

(* a def's class is the max of its own and its callees'.  When callees
   raise it, the def links to the first of them, in source order, that
   holds the new class; [equal] compares classes only, so the link
   stands until the class rises again, and following links ends at a
   def whose own reference carries the class. *)
let classify cg =
  let own = Hashtbl.create 512 in
  List.iter
    (fun (d : Callgraph.def) ->
      Hashtbl.replace own d.Callgraph.id (intrinsic cg d))
    (Callgraph.defs_in_order cg);
  Callgraph.solve cg
    ~bottom:{ cls = Pure; culprit = None; via = None }
    ~pinned:(fun d ->
      Option.map
        (fun cls -> { cls; culprit = None; via = None })
        (Option.bind d.Callgraph.effect_annot cls_of_name))
    ~transfer:(fun d value ->
      List.fold_left
        (fun acc (callee, _) ->
          let c = (value callee).cls in
          if rank c > rank acc.cls then
            { cls = c; culprit = None; via = Some callee }
          else acc)
        (Hashtbl.find own d.Callgraph.id)
        (Callgraph.callees cg d))
    ~equal:(fun a b -> a.cls = b.cls)

(* ---- the step-handler rule --------------------------------------------- *)

let is_congest_core (d : Callgraph.def) =
  List.exists
    (fun suffix -> String.ends_with ~suffix d.Callgraph.file)
    [ "lib/congest/primitives.ml"; "lib/congest/pipeline.ml" ]

let roots cg =
  List.filter_map
    (fun (d : Callgraph.def) ->
      if d.Callgraph.programs <> [] || is_congest_core d then
        Some d.Callgraph.id
      else None)
    (Callgraph.defs_in_order cg)

let check cg =
  let info = classify cg in
  let finding file line col message =
    { Lint.file; line; col; rule = "step-effect"; message }
  in
  (* invalid annotations are findings too: a typo must not silently
     disable enforcement *)
  let bad_annotations =
    List.filter_map
      (fun (d : Callgraph.def) ->
        match d.Callgraph.effect_annot with
        | Some s when cls_of_name s = None ->
            Some
              (finding d.Callgraph.file d.Callgraph.line 0
                 (Printf.sprintf
                    "unknown [@mincut.effect %S]; expected pure, \
                     deterministic-stateful, global-mutable or clock-random-io"
                    s))
        | _ -> None)
      (Callgraph.defs_in_order cg)
  in
  let escapes =
    List.filter_map
      (fun root ->
        match Hashtbl.find_opt info root with
        | Some i when not (deterministic i.cls) -> (
            (* the finding lands on the offending reference the links
               end at, not on the handler *)
            let chain, last =
              Callgraph.chain ~link:(fun id -> (Hashtbl.find info id).via) root
            in
            let leaf = Hashtbl.find info last in
            match leaf.culprit with
            | Some c ->
                Some
                  (finding c.cfile c.cline c.ccol
                     (Printf.sprintf "step handler %s reaches %s (%s, %s): %s"
                        root c.cname (cls_name leaf.cls) c.creason
                        (String.concat " -> " chain)))
            | None ->
                let d = Option.get (Callgraph.find_def cg root) in
                Some
                  (finding d.Callgraph.file d.Callgraph.line 0
                     (Printf.sprintf "step handler %s classified %s" root
                        (cls_name i.cls))))
        | _ -> None)
      (roots cg)
  in
  bad_annotations @ escapes
