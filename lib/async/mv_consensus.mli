(** One instance of multivalued ◇S consensus over arbitrary payloads —
    the §3 rotating-coordinator protocol (after Chandra–Toueg) as a pure
    per-instance engine. It is the one implementation of §3's rounds:
    {!Consensus} drives it once per instance of int-valued repeated
    consensus, and the service tower's total-order broadcast runs one
    engine per log slot.

    The engine is transport-free: every API call returns the messages to
    emit as {!out} values, and the caller owns instance numbering (the
    [base] rotation offset), message routing, decision dissemination, and
    the failure detector feeding [suspected]. Rounds follow the paper:
    phase 1 estimates to the rotating coordinator, phase 2 proposal on a
    majority of estimates (locked — newest-timestamp — estimates win),
    phase 3 ack/nack, phase 4 decision on a majority of acks. The two
    self-stabilizing superimpositions appear as {!tick}'s [retransmit]
    flag (per-tick re-send of the unfinished phase, with coordinator-state
    reconstruction) and {!jump} (round agreement driven by the enclosing
    layer's gossip). *)

open Ftss_util

type 'v msg =
  | Est of { round : int; estimate : 'v; ts : int }
  | Propose of { round : int; value : 'v }
  | Ack of { round : int }
  | Nack of { round : int }

type 'v out = To of Pid.t * 'v msg | All of 'v msg

type 'v verdict = Decided of 'v | Continue

type 'v t

(** [create ~n ~self ~base ~weight ~proposal] enters round 0 of a fresh
    instance. [base] rotates the round-0 coordinator (use the instance
    number); [weight] breaks ties among equally fresh estimates (heavier
    wins; then lowest pid). Raises [Invalid_argument] when [n < 1]. *)
val create :
  n:int -> self:Pid.t -> base:int -> weight:('v -> int) -> proposal:'v ->
  'v t * 'v out list

val round : 'v t -> int
val estimate : 'v t -> 'v

(** [receive t ~src m] processes one consensus message. A message from a
    newer round first moves the engine there (round agreement); stale
    messages are ignored. The verdict is [Decided v] only at the
    coordinator that assembled a majority of acks — the caller must
    disseminate the decision itself. *)
val receive : 'v t -> src:Pid.t -> 'v msg -> 'v t * 'v out list * 'v verdict

(** [jump t ~round] joins a newer round learned from gossip; a no-op for
    [round <= round t]. *)
val jump : 'v t -> round:int -> 'v t * 'v out list

(** [tick t ~suspected ~retransmit] performs the timer actions: nack and
    leave the round when its coordinator is suspected; when [retransmit],
    re-send the unfinished phase's messages and reconstruct lost
    coordinator bookkeeping (the paper's first superimposition). *)
val tick :
  'v t -> suspected:(Pid.t -> bool) -> retransmit:bool ->
  'v t * 'v out list * 'v verdict

(** Systemic-failure scrambling: an arbitrary timestamp, then an
    arbitrary round, both below [round_bound]; coordinator bookkeeping
    lost. *)
val corrupt : Rng.t -> round_bound:int -> 'v t -> 'v t

(** [plant t ~round ~estimate ~ts] is the state a corruption model
    chooses itself: mid-[round], holding [estimate] adopted in round
    [ts] ([-1] = fresh), coordinator bookkeeping lost. Nothing is sent —
    the engine believes its phase-1 message already went out. *)
val plant : 'v t -> round:int -> estimate:'v -> ts:int -> 'v t
