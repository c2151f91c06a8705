(** CONGEST model parameters.

    In the CONGEST model [Pel00] every node sends, per synchronous round,
    at most one message of O(log n) bits along each incident edge.  We
    count message payloads in {e words}, where one word holds one node
    id / weight / counter (i.e., Θ(log n) bits), and enforce a per-message
    word budget.  The engine also allows one message per directed edge
    per round, so the per-message budget is the per-edge-per-round
    bound as well.  The default budget of 4 words is the usual constant
    slack that CONGEST algorithm descriptions assume when they say a
    message carries "an edge and two fragment IDs". *)

type t = {
  words_per_message : int;  (** payload budget per message *)
  max_rounds : int;         (** engine watchdog; exceeded = failure *)
  sanitize : bool;
      (** shadow-execution mode: {!Network.run} wraps the program so
          that every step whose inbox holds ≥ 2 messages is re-run
          under adversarially permuted inbox orders, and the resulting
          state and outbox are byte-compared against the primary
          execution.  A divergence raises
          {!Network.Model_violation} with kind [Order_dependence] —
          the program's behaviour depends on a delivery order the
          CONGEST model does not promise (the engine's sorted inboxes
          are a convenience, not a model guarantee).  It also steps
          idle nodes the plain engine would sleep, and raises
          [Round_dependence] when such a step acts.  Requires node
          states and payloads to be marshalable plain data with
          canonical representations (see [Mincut_util.Intset]). *)
}

val default : t
(** 4 words, 2_000_000 rounds, no sanitize mode. *)

val with_budget : int -> t

val sanitized : t -> t
(** [sanitized t] enables shadow-execution order-dependence checking. *)

val bits_per_word : n:int -> int
(** ⌈log₂ n⌉ + 1, the "O(log n) bits" a word stands for; used by the
    audit report (experiment T5). *)
