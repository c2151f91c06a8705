module Graph = Mincut_graph.Graph
module Union_find = Mincut_graph.Union_find
module Network = Mincut_congest.Network
module Cost = Mincut_congest.Cost
module Primitives = Mincut_congest.Primitives

type result = { edge_ids : int list; phases : int; cost : Cost.t }

let none_cand = (max_int, max_int)

let better (((w1 : int), (i1 : int)) as a) ((w2, i2) as b) =
  if w1 < w2 || (w1 = w2 && i1 < i2) then a else b

(* --- step D: flood merged fragment ids, re-orienting the tree ------ *)

type fl_state = {
  adopted : bool;
  flooded : bool;  (* has forwarded the new id onward *)
  frag : int;
  parent : int;
  parent_edge : int;
}

(* each node's new fragment id and tree parent are written into [frag],
   [parent] and [parent_edge] as the engine hands back its state *)
let flood_new_ids ?cfg g ~allowed ~is_leader ~new_id ~frag ~parent ~parent_edge =
  let prog : (fl_state, int) Network.program =
    {
      initial =
        (fun v ->
          if is_leader.(v) then
            { adopted = true; flooded = false; frag = new_id.(v); parent = -1; parent_edge = -1 }
          else { adopted = false; flooded = false; frag = -1; parent = -1; parent_edge = -1 });
      step =
        (fun ~node ~round:_ ~inbox st ->
          if st.adopted then
            if not st.flooded then
              ( { st with flooded = true },
                List.map (fun (u, _) -> (u, st.frag)) allowed.(node) )
            else (st, [])
          else
            match inbox with
            | [] -> (st, [])
            | (sender, f) :: _ ->
                let parent_edge =
                  match List.assoc_opt sender allowed.(node) with
                  | Some id -> id
                  | None -> -1
                in
                let onward =
                  List.filter (fun (u, _) -> u <> sender) allowed.(node)
                  |> List.map (fun (u, _) -> (u, f))
                in
                ( { adopted = true; flooded = true; frag = f; parent = sender; parent_edge },
                  onward ))
        ;
      halted = (fun st -> st.adopted && st.flooded);
    }
  in
  let keep v st =
    frag.(v) <- st.frag;
    parent.(v) <- st.parent;
    parent_edge.(v) <- st.parent_edge
  in
  let _, audit = Network.run ?cfg ~words:(fun _ -> 1) ~result:keep g prog in
  Cost.executed ~audit "boruvka: merge flood (real)" audit.Network.rounds

(* --- main loop ------------------------------------------------------ *)

module ISet = Set.Make (Int)

(* Steps A-C are [Primitives]' forest programs over the fragment trees:
   A is a one-round exchange of fragment ids, B a convergecast of the
   cheapest outgoing (weight, edge id), C a one-item broadcast of each
   leader's decision. *)
let run ?cfg g =
  let n = Graph.n g in
  let frag = Array.init n (fun v -> v) in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let mst = ref ISet.empty in
  let cost = ref Cost.zero in
  let phases = ref 0 in
  let distinct_frags () =
    Array.fold_left (fun s f -> ISet.add f s) ISet.empty frag |> ISet.cardinal
  in
  let heard_by = Array.make n (-1) in
  let nbr_frag = Array.make n 0 in
  let continue = ref (n > 1) in
  while !continue do
    incr phases;
    let forest = Primitives.forest_of_parents parent in
    (* A: learn neighbor fragments *)
    let heard, a_audit = Primitives.exchange ?cfg ~words:(fun _ -> 1) g frag in
    let c1 = Cost.executed ~audit:a_audit "boruvka: frag exchange (real)" a_audit.Network.rounds in
    (* local candidate per node: cheapest incident edge leaving the
       fragment, under the global (weight, id) order.  Each node writes
       what it heard into [nbr_frag], stamped with its (phase, node)
       pair so no earlier write can pass for this one, then scans its
       adjacency once. *)
    let local = Array.make n none_cand in
    for v = 0 to n - 1 do
      let stamp = (!phases * n) + v in
      List.iter
        (fun (u, f) ->
          heard_by.(u) <- stamp;
          nbr_frag.(u) <- f)
        heard.(v);
      Graph.iter_adj g v (fun u id ->
          if heard_by.(u) = stamp && nbr_frag.(u) <> frag.(v) then
            local.(v) <- better local.(v) (Graph.weight g id, id))
    done;
    (* B: fragment leaders learn their min outgoing edge *)
    let best, b_audit =
      Primitives.convergecast ?cfg ~words:(fun _ -> 2) ~combine:better g forest local
    in
    let c2 =
      Cost.executed ~audit:b_audit "boruvka: candidate convergecast (real)"
        b_audit.Network.rounds
    in
    let chosen = Hashtbl.create 64 in
    for v = 0 to n - 1 do
      if parent.(v) = -1 && snd best.(v) <> snd none_cand then
        Hashtbl.replace chosen frag.(v) (snd best.(v))
    done;
    if Hashtbl.length chosen = 0 then begin
      (* no outgoing edges anywhere: single fragment or disconnected *)
      cost :=
        Cost.( ++ ) !cost
          (Cost.group
             (Printf.sprintf "boruvka phase %d (final probe)" !phases)
             (Cost.( ++ ) c1 c2));
      continue := false
    end
    else begin
      (* C: decision broadcast within each fragment + 1-round handshake
         across each chosen edge *)
      let leader_decision = Array.make n (-1) in
      for v = 0 to n - 1 do
        if parent.(v) = -1 then
          leader_decision.(v) <-
            (match Hashtbl.find_opt chosen frag.(v) with Some id -> id | None -> -1)
      done;
      let _, c_audit =
        Primitives.broadcast ?cfg ~words:(fun _ -> 1) ~k:1
          ~item:(fun r _ -> leader_decision.(r))
          g forest
      in
      let c3 =
        Cost.( ++ )
          (Cost.executed ~audit:c_audit "boruvka: decision broadcast (real)"
             c_audit.Network.rounds)
          (Cost.scheduled "boruvka: merge handshake" 1)
      in
      (* resolve merges *)
      let uf = Union_find.create n in
      Hashtbl.iter
        (fun _ id ->
          let u, v = Graph.endpoints g id in
          ignore (Union_find.union uf frag.(u) frag.(v));
          mst := ISet.add id !mst)
        chosen;
      (* new fragment id = min old fragment id in the merged component
         (old ids are node ids, each the min member of its fragment) *)
      let new_of_rep = Hashtbl.create 64 in
      for v = 0 to n - 1 do
        let r = Union_find.find uf frag.(v) in
        let cur = Option.value ~default:max_int (Hashtbl.find_opt new_of_rep r) in
        Hashtbl.replace new_of_rep r (Int.min cur frag.(v))
      done;
      let new_id = Array.make n (-1) in
      let is_leader = Array.make n false in
      for v = 0 to n - 1 do
        new_id.(v) <- Hashtbl.find new_of_rep (Union_find.find uf frag.(v))
      done;
      for v = 0 to n - 1 do
        if new_id.(v) = v then is_leader.(v) <- true
      done;
      (* allowed adjacency for the flood: current fragment tree edges
         plus this phase's merge edges *)
      let allowed = Array.make n [] in
      for v = 0 to n - 1 do
        if parent.(v) <> -1 then allowed.(v) <- (parent.(v), parent_edge.(v)) :: allowed.(v);
        Array.iter
          (fun c -> allowed.(v) <- (c, parent_edge.(c)) :: allowed.(v))
          forest.Primitives.children.(v)
      done;
      Hashtbl.iter
        (fun _ id ->
          let u, v = Graph.endpoints g id in
          allowed.(u) <- (v, id) :: allowed.(u);
          allowed.(v) <- (u, id) :: allowed.(v))
        chosen;
      (* dedupe targets (parallel merge choices may repeat a pair) *)
      Array.iteri
        (fun v l ->
          allowed.(v) <-
            List.sort_uniq
              (fun (a1, a2) (b1, b2) ->
                match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)
              l)
        allowed;
      let c4 = flood_new_ids ?cfg g ~allowed ~is_leader ~new_id ~frag ~parent ~parent_edge in
      cost :=
        Cost.( ++ ) !cost
          (Cost.group
             (Printf.sprintf "boruvka phase %d" !phases)
             (Cost.sum [ c1; c2; c3; c4 ]));
      if distinct_frags () <= 1 then continue := false
    end
  done;
  { edge_ids = ISet.elements !mst; phases = !phases; cost = !cost }
