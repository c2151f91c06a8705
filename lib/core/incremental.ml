module Handle = Mincut_graph.Handle
module Mincut_seq = Mincut_graph.Mincut_seq
module Bitset = Mincut_util.Bitset

type mode = Reused | Cert_solved | Resolved

let mode_name = function
  | Reused -> "reused"
  | Cert_solved -> "cert"
  | Resolved -> "resolved"

type answer = { lambda : int; mode : mode }

type stats = {
  mutable deltas_applied : int;
  mutable reused : int;
  mutable cert_solves : int;
  mutable full_resolves : int;
}

let fallback_rate s =
  if s.deltas_applied = 0 then 0.0
  else float_of_int s.full_resolves /. float_of_int s.deltas_applied

type t = {
  handle : Handle.t;
  stats : stats;
  mutable lam : int;
  mutable side : Bitset.t;
  mutable gen : int;  (* bumps whenever (lam, side) is re-solved *)
}

let handle t = t.handle
let graph t = Handle.current t.handle
let stats t = t.stats
let generation t = t.gen
let side t = t.side
let lambda t = t.lam

(* exact λ and a side of the live graph: Stoer–Wagner, or node 0's
   component when the live graph is disconnected *)
let resolve t =
  let r = Mincut_seq.min_cut (Handle.current t.handle) in
  t.lam <- r.Mincut_seq.value;
  t.side <- r.Mincut_seq.side

let create g =
  let handle = Handle.of_graph g in
  let r = Mincut_seq.min_cut (Handle.current handle) in
  {
    handle;
    stats =
      { deltas_applied = 0; reused = 0; cert_solves = 0; full_resolves = 0 };
    lam = r.Mincut_seq.value;
    side = r.Mincut_seq.side;
    gen = 0;
  }

let apply t op =
  match Handle.apply t.handle op with
  | Error _ as e -> e
  | Ok outcome ->
      let st = t.stats in
      st.deltas_applied <- st.deltas_applied + 1;
      let changes = outcome.Handle.changes in
      let decreased (c : Handle.change) = c.Handle.after < c.Handle.before in
      let crossing (c : Handle.change) =
        Bitset.mem t.side c.Handle.cu <> Bitset.mem t.side c.Handle.cv
      in
      (* a pure increase leaves every cut at least as heavy, so λ and the
         side carry over unless one of the increases crosses the side *)
      let mode =
        if outcome.Handle.renumbered || List.exists decreased changes then Resolved
        else if List.exists crossing changes then Cert_solved
        else Reused
      in
      (match mode with
      | Reused -> st.reused <- st.reused + 1
      | Cert_solved -> st.cert_solves <- st.cert_solves + 1
      | Resolved -> st.full_resolves <- st.full_resolves + 1);
      if mode <> Reused then begin
        t.gen <- t.gen + 1;
        resolve t
      end;
      Ok (outcome, { lambda = t.lam; mode })
