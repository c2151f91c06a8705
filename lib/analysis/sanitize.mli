(** Shadow-execution sanitizer: adversarial order-dependence and
    payload-scaling checks for CONGEST programs.

    The engine's sorted inbox delivery is an implementation convenience,
    not a model guarantee: a correct CONGEST program must compute the
    same states and messages under {e any} delivery order.  This
    analyzer drives a program through {!Mincut_congest.Network.run} with
    [Config.sanitize] set — every step with ≥ 2 inbox messages is
    re-executed under reversed and deterministically shuffled inboxes
    and byte-compared, and every node the plain engine would sleep is
    stepped and checked — at a per-message word budget of the lesser of
    the caller's budget and the c·log n scaling limit, so the engine's
    own word check stops the run at the first payload past either. *)

type flag = {
  node : int;
  round : int;
  words : int;  (** measured payload words *)
  limit : int;  (** the c·log n limit it exceeded *)
}

type report = {
  order_dependence : (int * int) option;
      (** [(node, round)] provenance of the first divergence under a
          permuted inbox, when one was caught *)
  violation : string option;
      (** any other model violation the run raised (rendered); a
          payload past the caller's word budget is rendered against
          that budget *)
  payload_limit : int;  (** the scaling limit applied *)
  flag : flag option;   (** the payload past [payload_limit] that
                            stopped the run *)
  ok : bool;            (** no divergence, no violation, no flag *)
}

val default_limit : int -> int
(** [default_limit n] — the payload scaling limit in words:
    [max Config.default.words_per_message ⌈log₂ n⌉]. *)

val run :
  ?cfg:Mincut_congest.Config.t ->
  ?limit:int ->
  words:('msg -> int) ->
  Mincut_graph.Graph.t ->
  ('state, 'msg) Mincut_congest.Network.program ->
  report
(** Run the program to completion under sanitize mode.  Never raises
    on model violations — they are folded into the report.  [limit]
    overrides the payload scaling limit; [cfg]'s word budget still
    bounds each message. *)

val describe : report -> string list
(** Human-readable one-line findings (empty when [ok]). *)
