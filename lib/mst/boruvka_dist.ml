module Graph = Mincut_graph.Graph
module Union_find = Mincut_graph.Union_find
module Network = Mincut_congest.Network
module Cost = Mincut_congest.Cost

type result = { edge_ids : int list; phases : int; cost : Cost.t }

(* One message type for all four per-phase programs. *)
type msg =
  | Frag of int            (* step A: my fragment id *)
  | Cand of int * int      (* step B: best outgoing (weight, edge id); max_int = none *)
  | Decide of int          (* step C: fragment's chosen edge id; -1 = none *)
  | New_frag of int        (* step D: merged fragment id flood *)

let words = function Frag _ -> 1 | Cand _ -> 2 | Decide _ -> 1 | New_frag _ -> 1

let none_cand = (max_int, max_int)

let better (w1, i1) (w2, i2) = if w1 < w2 || (w1 = w2 && i1 < i2) then (w1, i1) else (w2, i2)

let distinct_neighbors g v =
  List.sort_uniq Int.compare (Array.to_list (Array.map fst (Graph.adj g v)))

(* --- step A: 1-round fragment id exchange ------------------------- *)

(* [heard] is kept sorted by sender, so the state does not depend on
   the order the inbox was delivered in. *)
type exch_state = { round_ : int; heard : (int * int) list }

let by_sender (s, f) (s', f') =
  match Int.compare s s' with 0 -> Int.compare f f' | c -> c

let exchange_frags ?cfg g frag =
  let prog : (exch_state, msg) Network.program =
    {
      initial = (fun _ -> { round_ = 0; heard = [] });
      step =
        (fun ~node ~round ~inbox st ->
          let heard =
            List.filter_map (fun (s, m) -> match m with Frag f -> Some (s, f) | _ -> None) inbox
            @ st.heard
            |> List.sort by_sender
          in
          if round = 0 then
            ( { round_ = 1; heard },
              List.map (fun u -> (u, Frag frag.(node))) (distinct_neighbors g node) )
          else ({ round_ = 2; heard }, []))
        ;
      halted = (fun st -> st.round_ >= 2);
    }
  in
  let states, audit = Network.run ?cfg ~words g prog in
  let heard = Array.map (fun st -> st.heard) states in
  (heard, Cost.executed ~audit "boruvka: frag exchange (real)" audit.Network.rounds)

(* --- step B: convergecast of the min outgoing edge ----------------- *)

type cc_state = { remaining : int; best : int * int; sent : bool }

let converge_candidates ?cfg g ~parent ~child_count ~local =
  let prog : (cc_state, msg) Network.program =
    {
      initial = (fun v -> { remaining = child_count.(v); best = local.(v); sent = false });
      step =
        (fun ~node ~round:_ ~inbox st ->
          let best =
            List.fold_left
              (fun b (_, m) -> match m with Cand (w, id) -> better b (w, id) | _ -> b)
              st.best inbox
          in
          let remaining = st.remaining - List.length inbox in
          if remaining = 0 && not st.sent then
            if parent.(node) = -1 then ({ remaining; best; sent = true }, [])
            else
              ( { remaining; best; sent = true },
                [ (parent.(node), Cand (fst best, snd best)) ] )
          else ({ st with remaining; best }, []))
        ;
      halted = (fun st -> st.sent);
    }
  in
  let states, audit = Network.run ?cfg ~words g prog in
  (Array.map (fun st -> st.best) states, Cost.executed ~audit "boruvka: candidate convergecast (real)" audit.Network.rounds)

(* --- step C: broadcast the decision down each fragment ------------- *)

type dc_state = { decision : int option; forwarded : bool }

let broadcast_decision ?cfg g ~parent ~children ~leader_decision =
  let prog : (dc_state, msg) Network.program =
    {
      initial =
        (fun v ->
          {
            decision = (if parent.(v) = -1 then Some leader_decision.(v) else None);
            forwarded = false;
          });
      step =
        (fun ~node ~round:_ ~inbox st ->
          match st.decision with
          | Some d when not st.forwarded ->
              ( { st with forwarded = true },
                List.map (fun c -> (c, Decide d)) children.(node) )
          | Some _ -> (st, [])
          | None -> (
              match
                List.find_map (fun (_, m) -> match m with Decide d -> Some d | _ -> None) inbox
              with
              | None -> (st, [])
              | Some d ->
                  ( { decision = Some d; forwarded = true },
                    List.map (fun c -> (c, Decide d)) children.(node) )))
        ;
      halted = (fun st -> st.decision <> None && st.forwarded);
    }
  in
  let states, audit = Network.run ?cfg ~words g prog in
  ( Array.map (fun st -> match st.decision with Some d -> d | None -> -1) states,
    Cost.executed ~audit "boruvka: decision broadcast (real)" audit.Network.rounds )

(* --- step D: flood merged fragment ids, re-orienting the tree ------ *)

type fl_state = {
  adopted : bool;
  flooded : bool;  (* has forwarded the new id onward *)
  frag : int;
  parent : int;
  parent_edge : int;
}

let flood_new_ids ?cfg g ~allowed ~is_leader ~new_id =
  let prog : (fl_state, msg) Network.program =
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
                List.map (fun (u, _) -> (u, New_frag st.frag)) allowed.(node) )
            else (st, [])
          else
            match
              List.find_map (fun (s, m) -> match m with New_frag f -> Some (s, f) | _ -> None) inbox
            with
            | None -> (st, [])
            | Some (sender, f) ->
                let parent_edge =
                  match List.assoc_opt sender allowed.(node) with
                  | Some id -> id
                  | None -> -1
                in
                let onward =
                  List.filter (fun (u, _) -> u <> sender) allowed.(node)
                  |> List.map (fun (u, _) -> (u, New_frag f))
                in
                ( { adopted = true; flooded = true; frag = f; parent = sender; parent_edge },
                  onward ))
        ;
      halted = (fun st -> st.adopted && st.flooded);
    }
  in
  let states, audit = Network.run ?cfg ~words g prog in
  (states, Cost.executed ~audit "boruvka: merge flood (real)" audit.Network.rounds)

(* --- main loop ------------------------------------------------------ *)

module ISet = Set.Make (Int)

let run ?cfg g =
  let n = Graph.n g in
  let frag = Array.init n (fun v -> v) in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let children = Array.make n [] in
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
    (* A: learn neighbor fragments *)
    let heard, c1 = exchange_frags ?cfg g frag in
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
      Array.iter
        (fun (u, id) ->
          if heard_by.(u) = stamp && nbr_frag.(u) <> frag.(v) then
            local.(v) <- better local.(v) (Graph.weight g id, id))
        (Graph.adj g v)
    done;
    (* B: fragment leaders learn their min outgoing edge *)
    let child_count = Array.map List.length children in
    let best, c2 = converge_candidates ?cfg g ~parent ~child_count ~local in
    let chosen = Hashtbl.create 64 in
    for v = 0 to n - 1 do
      if parent.(v) = -1 && best.(v) <> none_cand then
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
      let _, c3 = broadcast_decision ?cfg g ~parent ~children ~leader_decision in
      let c3 = Cost.( ++ ) c3 (Cost.scheduled "boruvka: merge handshake" 1) in
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
        let cur = try Hashtbl.find new_of_rep r with Not_found -> max_int in
        Hashtbl.replace new_of_rep r (min cur frag.(v))
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
        List.iter
          (fun c -> allowed.(v) <- (c, parent_edge.(c)) :: allowed.(v))
          children.(v)
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
      let states, c4 = flood_new_ids ?cfg g ~allowed ~is_leader ~new_id in
      Array.iteri
        (fun v (st : fl_state) ->
          frag.(v) <- st.frag;
          parent.(v) <- st.parent;
          parent_edge.(v) <- st.parent_edge)
        states;
      Array.fill children 0 n [];
      for v = 0 to n - 1 do
        if parent.(v) <> -1 then children.(parent.(v)) <- v :: children.(parent.(v))
      done;
      cost :=
        Cost.( ++ ) !cost
          (Cost.group
             (Printf.sprintf "boruvka phase %d" !phases)
             (Cost.sum [ c1; c2; c3; c4 ]));
      if distinct_frags () <= 1 then continue := false
    end
  done;
  { edge_ids = ISet.elements !mst; phases = !phases; cost = !cost }
