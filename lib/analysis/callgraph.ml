(* Approximate intra-repo call graph over parsed sources.

   One pass over each [Srcread.source] collects, per top-level (or
   nested-module top-level) value binding:

   - every value identifier referenced in the body, with position and
     two context bits: [in_task] (the reference occurs inside an
     argument of a [Pool.map] application — it may run
     on another domain) and [guarded] (the reference occurs inside an
     argument of [Lockcheck.with_lock]);
   - whether the body mutates through [<-] (array/field/instance set);
   - CONGEST program literals: record expressions carrying both an
     [initial] and a [step] field, with the [step] payload kept for
     [Allocheck] and marking the binding as a drive-callback root for
     [Effects];
   - an optional [[@mincut.effect "<class>"]] annotation overriding
     effect inference where it is too coarse.

   Top-level [ref]/[Hashtbl.create]/[Array.make]/... bindings are
   additionally registered as mutable globals for [Domcheck];
   [Atomic.make] and [Domain.DLS.new_key] register as the safe kinds.

   Resolution is name-based and deliberately approximate: module
   aliases ([module T = Mincut_graph.Tree], including [let module])
   are expanded, unqualified names resolve against the enclosing
   module path, and qualified names resolve by exact id then by
   dotted-suffix match (unique, or unique within the caller's library).
   Anything unresolved is an external, classified by [Effects]'s
   intrinsic table. *)

type global_kind = Ref | Table | Array_cell | Buffer | Atomic | Dls

let global_kind_name = function
  | Ref -> "ref"
  | Table -> "hashtbl"
  | Array_cell -> "array"
  | Buffer -> "buffer"
  | Atomic -> "atomic"
  | Dls -> "domain-local"

type global = { gid : string; gkind : global_kind; gfile : string; gline : int }

type refsite = {
  name : string;  (* alias-expanded, Stdlib-stripped dotted path *)
  rline : int;
  rcol : int;
  in_task : bool;
  guarded : bool;
}

type def = {
  id : string;
  file : string;
  line : int;
  arity : int;
  refs : refsite list;  (* in source order *)
  mutates : bool;
  programs : (int * Parsetree.expression) list;  (* (line, step field body) *)
  effect_annot : string option;
  raises_annot : string option;  (* [[@mincut.raises "A,B"]]; "" pins empty *)
  boundary_annot : string option;  (* [[@mincut.boundary "<policy>"]] *)
  body : Parsetree.expression;  (* for downstream walks (Allocheck) *)
}

type t = {
  defs : (string, def) Hashtbl.t;
  order : string list;  (* ids in (file, line) order *)
  globals : (string, global) Hashtbl.t;
  index : (string, string list) Hashtbl.t;  (* dotted suffix -> candidate ids *)
  edges : (string, (string * refsite) list) Hashtbl.t;
      (* resolved def->def calls, in source order *)
  callers : (string, string list) Hashtbl.t;
      (* reverse edges, latest caller first *)
}

(* ---- per-file collection ----------------------------------------------- *)

let split_path = String.split_on_char '.'

(* the string payload of a [[@<attr> "<s>"]] annotation, if present *)
let string_attr attr (attrs : Parsetree.attributes) =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> attr then None
      else
        match a.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] ->
            Some s
        | _ -> None)
    attrs

let effect_attr = string_attr "mincut.effect"

let rec arity_of (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> 1 + arity_of body
  | Pexp_newtype (_, body) -> arity_of body
  | Pexp_function _ -> 1
  | Pexp_constraint (e, _) -> arity_of e
  | _ -> 0

let pool_spawns = [ "Pool.map" ]

let is_pool_spawn name =
  List.exists (fun s -> Srcread.has_suffix ~suffix:s name) pool_spawns

let is_guard name =
  Srcread.has_suffix ~suffix:"Lockcheck.with_lock" name || name = "with_lock"

let global_makers =
  [
    ("ref", Ref);
    ("Hashtbl.create", Table);
    ("Array.make", Array_cell);
    ("Array.init", Array_cell);
    ("Array.create_float", Array_cell);
    ("Bytes.create", Array_cell);
    ("Bytes.make", Array_cell);
    ("Buffer.create", Buffer);
    ("Queue.create", Buffer);
    ("Stack.create", Buffer);
    ("Atomic.make", Atomic);
    ("Domain.DLS.new_key", Dls);
  ]

(* the head constructor of a top-level binding body, looking through
   type constraints — [let r : int ref = ref 0] still registers *)
let rec global_of_expr (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> global_of_expr e
  | Pexp_apply (f, _) -> (
      match Srcread.head_name f with
      | Some name ->
          let name = Srcread.strip_stdlib name in
          List.find_map
            (fun (maker, kind) ->
              if name = maker || Srcread.has_suffix ~suffix:maker name then
                Some kind
              else None)
            global_makers
      | None -> None)
  | _ -> None

(* collect everything inside one binding body *)
let scan_body ~aliases (body : Parsetree.expression) =
  let refs = ref [] in
  let mutates = ref false in
  let programs = ref [] in
  let in_task = ref false in
  let guarded = ref false in
  let expand name =
    let name = Srcread.strip_stdlib name in
    match split_path name with
    | first :: rest when Hashtbl.mem aliases first ->
        String.concat "." (Hashtbl.find aliases first :: rest)
    | _ -> name
  in
  let record name loc =
    let rline, rcol = Srcread.lc loc in
    refs :=
      { name = expand name; rline; rcol; in_task = !in_task; guarded = !guarded }
      :: !refs
  in
  let rec expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> record (Srcread.name_of txt) loc
    | Pexp_setfield _ | Pexp_setinstvar _ ->
        mutates := true;
        Ast_iterator.default_iterator.expr it e
    | Pexp_letmodule
        ({ txt = Some alias; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, body)
      ->
        Hashtbl.replace aliases alias (expand (Srcread.name_of txt));
        it.expr it body
    | Pexp_record (fields, base) ->
        let label (l : Longident.t Asttypes.loc) = Longident.last l.txt in
        let labels = List.map (fun (l, _) -> label l) fields in
        if List.mem "initial" labels && List.mem "step" labels then begin
          let line, _ = Srcread.lc e.pexp_loc in
          List.iter
            (fun (l, payload) ->
              if label l = "step" then programs := (line, payload) :: !programs)
            fields
        end;
        Option.iter (it.expr it) base;
        List.iter (fun (_, payload) -> it.expr it payload) fields
    | Pexp_apply (f, args) -> (
        match Srcread.head_name f with
        | Some name when is_guard (expand name) ->
            expr it f;
            let saved = !guarded in
            guarded := true;
            List.iter (fun (_, a) -> expr it a) args;
            guarded := saved
        | Some name when is_pool_spawn (expand name) ->
            expr it f;
            let saved = !in_task in
            in_task := true;
            List.iter (fun (_, a) -> expr it a) args;
            in_task := saved
        | _ -> Ast_iterator.default_iterator.expr it e)
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body;
  (List.rev !refs, !mutates, List.rev !programs)

let collect_source (s : Srcread.source) ~add_def ~add_global =
  let aliases : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let rec structure path (items : Parsetree.structure) =
    List.iter (item path) items
  and item path (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let line, _ = Srcread.lc vb.pvb_loc in
            let name =
              match Srcread.binding_names vb.pvb_pat with
              | n :: _ -> n
              | [] -> Printf.sprintf "_init_line%d" line
            in
            let id = String.concat "." (path @ [ name ]) in
            let refs, mutates, programs = scan_body ~aliases vb.pvb_expr in
            let def =
              {
                id;
                file = s.Srcread.file;
                line;
                arity = arity_of vb.pvb_expr;
                refs;
                mutates;
                programs;
                effect_annot = effect_attr vb.pvb_attributes;
                raises_annot = string_attr "mincut.raises" vb.pvb_attributes;
                boundary_annot = string_attr "mincut.boundary" vb.pvb_attributes;
                body = vb.pvb_expr;
              }
            in
            add_def def;
            match global_of_expr vb.pvb_expr with
            | Some gkind ->
                add_global
                  { gid = id; gkind; gfile = s.Srcread.file; gline = line }
            | None -> ())
          vbs
    | Pstr_module mb -> module_binding path mb
    | Pstr_recmodule mbs -> List.iter (module_binding path) mbs
    | _ -> ()
  and module_binding path (mb : Parsetree.module_binding) =
    match mb.pmb_name.txt with
    | None -> ()
    | Some name -> (
        match mb.pmb_expr.pmod_desc with
        | Pmod_structure items -> structure (path @ [ name ]) items
        | Pmod_ident { txt; _ } ->
            Hashtbl.replace aliases name
              (Srcread.strip_stdlib (Srcread.name_of txt))
        | _ -> ())
  in
  structure (split_path s.Srcread.modpath) s.Srcread.ast

(* ---- graph assembly ---------------------------------------------------- *)

(* every proper dotted suffix with >= 2 components indexes the id, so
   "Primitives.bfs_program" finds "Mincut_congest.Primitives.bfs_program" *)
let index_id index id =
  let rec suffixes = function
    | _ :: _ :: _ as parts ->
        let key = String.concat "." parts in
        let prev = Option.value ~default:[] (Hashtbl.find_opt index key) in
        if not (List.mem id prev) then Hashtbl.replace index key (id :: prev);
        suffixes (List.tl parts)
    | _ -> ()
  in
  suffixes (List.tl (split_path id))

let find_def t id = Hashtbl.find_opt t.defs id

let find_global t id = Hashtbl.find_opt t.globals id

let known t id = Hashtbl.mem t.defs id || Hashtbl.mem t.globals id

(* resolve one referenced name from inside [from] *)
let resolve t ~(from : def) name =
  if String.contains name '.' then
    if known t name then Some name
    else
      match Hashtbl.find_opt t.index name with
      | Some [ id ] -> Some id
      | Some (_ :: _ as ids) -> (
          (* ambiguous suffix: accept only a unique candidate within the
             caller's own library prefix *)
          let lib id = List.hd (split_path id) in
          let mine = lib from.id in
          match List.filter (fun id -> lib id = mine) ids with
          | [ id ] -> Some id
          | _ -> None)
      | _ -> None
  else
    (* unqualified: climb the enclosing module path *)
    let rec climb parts =
      match parts with
      | [] -> None
      | _ ->
          let candidate = String.concat "." (parts @ [ name ]) in
          if known t candidate then Some candidate
          else climb (List.rev (List.tl (List.rev parts)))
    in
    climb (List.rev (List.tl (List.rev (split_path from.id))))

let lookup table id = Option.value ~default:[] (Hashtbl.find_opt table id)

let callees t (d : def) = lookup t.edges d.id

let defs_in_order t =
  List.filter_map (fun id -> find_def t id) t.order

let build sources =
  let defs = Hashtbl.create 512 in
  let globals = Hashtbl.create 32 in
  let index = Hashtbl.create 1024 in
  let order = ref [] in
  List.iter
    (fun s ->
      collect_source s
        ~add_def:(fun d ->
          if not (Hashtbl.mem defs d.id) then begin
            Hashtbl.replace defs d.id d;
            index_id index d.id;
            order := d.id :: !order
          end)
        ~add_global:(fun g ->
          if not (Hashtbl.mem globals g.gid) then
            Hashtbl.replace globals g.gid g))
    sources;
  let edges = Hashtbl.create 512 and callers = Hashtbl.create 512 in
  let t = { defs; order = List.rev !order; globals; index; edges; callers } in
  (* every reference is resolved here, once; the analyses look edges up *)
  List.iter
    (fun d ->
      let out =
        List.filter_map
          (fun r ->
            match resolve t ~from:d r.name with
            | Some id when Hashtbl.mem defs id && id <> d.id -> Some (id, r)
            | _ -> None)
          d.refs
      in
      Hashtbl.replace edges d.id out;
      List.iter
        (fun (callee, _) ->
          let prev = lookup callers callee in
          if not (List.mem d.id prev) then
            Hashtbl.replace callers callee (d.id :: prev))
        out)
    (defs_in_order t);
  t

(* BFS from [roots]; each reached id maps to its witness chain
   (root first, the id itself last) *)
let reachable t ~roots =
  let chains : (string, string list) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      if Hashtbl.mem t.defs r && not (Hashtbl.mem chains r) then begin
        Hashtbl.replace chains r [ r ];
        Queue.add r queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let chain = Hashtbl.find chains id in
    List.iter
      (fun (callee, _) ->
        if not (Hashtbl.mem chains callee) then begin
          Hashtbl.replace chains callee (chain @ [ callee ]);
          Queue.add callee queue
        end)
      (lookup t.edges id)
  done;
  chains

(* ---- the dataflow engine ------------------------------------------------ *)

(* Each def starts at its pin, or at [bottom].  A FIFO worklist seeded
   with the unpinned defs in (file, line) order recomputes a def with
   [transfer] from its callees' current values; a result not [equal] to
   the stored value replaces it and requeues the def's callers.  What
   [equal] ignores (a witness site, a callee link) is kept from the
   value first stored with the current compared part, so the seed order
   decides the links. *)
let solve t ~bottom ~pinned ~transfer ~equal =
  let value = Hashtbl.create 512 and free = Hashtbl.create 512 in
  List.iter
    (fun d ->
      match pinned d with
      | Some v -> Hashtbl.replace value d.id v
      | None ->
          Hashtbl.replace value d.id bottom;
          Hashtbl.replace free d.id d)
    (defs_in_order t);
  let queue = Queue.create () and queued = Hashtbl.create 512 in
  let push id =
    if Hashtbl.mem free id && not (Hashtbl.mem queued id) then begin
      Hashtbl.replace queued id ();
      Queue.add id queue
    end
  in
  List.iter push t.order;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    Hashtbl.remove queued id;
    let v = transfer (Hashtbl.find free id) (Hashtbl.find value) in
    if not (equal (Hashtbl.find value id) v) then begin
      Hashtbl.replace value id v;
      List.iter push (lookup t.callers id)
    end
  done;
  value

(* follow each def's "came through callee X" link from [root] until a
   def with no link, whose own site is the witness, or a def already on
   the chain: (root-first chain, that last def) *)
let chain ~link root =
  let rec go acc id =
    match link id with
    | Some next when not (List.mem next (id :: acc)) -> go (id :: acc) next
    | _ -> (List.rev (id :: acc), id)
  in
  go [] root
