(** Repeated asynchronous Consensus relative to a failure detector —
    the paper's §3 protocol, derived from Chandra-Toueg [CT91]: the
    repeated driver over the {!Mv_consensus} engine.

    Each instance's rounds are {!Mv_consensus}'s, with the coordinator
    of round [r] at [p(r mod n)] in every instance and the proposal rule
    "newest timestamp, then lowest pid": phase 1 estimates to the
    round's coordinator, phase 2 a proposal on a majority of estimates,
    phase 3 ack (adopting the proposal) or, when the detector suspects
    the coordinator, nack and move on, phase 4 a decision on a majority
    of acks. The driver owns what spans instances: instance numbering
    on the wire, decision dissemination, the embedded ◇W → ◇S detector
    ({!Esfd.Layer}), and round agreement. The [style] switches the
    paper's two superimpositions on and off:

    - [Baseline]: the classic protocol. Correct from the
      protocol-specified initial state, but a systemic failure can park
      every process waiting for messages that were never sent — a
      deadlock (the situation [KP90] identified). Future-tagged messages
      are buffered and replayed on round entry, as in CT91.

    - [Self_stabilizing]: (1) until a process completes a phase it
      {e periodically re-sends} every message of that phase, so waiting
      predicates are always eventually satisfied regardless of the
      initial state; (2) a {e round agreement} protocol runs on the
      (instance, round) tag carried by every message: a process receiving
      a tag greater than its own abandons its current phase and joins the
      first phase of the newer round; periodic ROUND heartbeats
      disseminate tags so laggards always catch up.

    Consensus repeats forever (instance 0, 1, 2, ...): terminating
    protocols cannot self-stabilize, so, exactly as in §2, the deliverable
    is repeated consensus, with per-instance agreement/validity checked by
    {!decisions}-based reports. Decisions of one instance are disseminated
    (and, in the self-stabilizing style, re-disseminated every tick) so
    every correct process eventually completes every post-stabilization
    instance.

    Crash failures require a correct majority: f < n/2. *)

open Ftss_util

type value = int

type style = {
  retransmit : bool;
      (** re-send the unfinished phase's messages every tick, reconstruct
          lost coordinator state, re-disseminate decisions *)
  round_agreement : bool;
      (** jump to any newer (instance, round) tag seen, and broadcast
          ROUND heartbeats every tick. When off, future-tagged messages
          are buffered and replayed on round entry — the classic CT91
          mechanism. *)
}

(** The classic protocol: no retransmission, no round agreement
    (buffering only). *)
val baseline : style

(** The paper's §3 protocol: both superimpositions. *)
val self_stabilizing : style

(** Ablations: exactly one superimposition each. *)
val retransmit_only : style

val round_agreement_only : style

type tag = { instance : int; round : int }

type state
type msg

(** Forged messages, for injecting channel corruption via
    {!Sim.run}'s [spurious] argument (a systemic failure can leave junk
    in the channels, not just in process memories). [msg] is abstract,
    so these are the only way to forge one; today only the tests plant
    them, as the channel half of the systemic-failure adversary. *)

val forged_round : tag -> msg
val forged_decide : instance:int -> value:value -> msg

type observation =
  | Decided of { instance : int; value : value }
  | Joined of tag  (** process adopted a newer (instance, round) tag *)

(** [process ?obs ~n ~style ~propose ~detector ()] builds the Sim
    process. [propose p i] is process [p]'s proposal for instance [i].
    The embedded failure detector is the {!Esfd.Layer}: the Figure 4 ◇S
    transform over [detector]; under [Esfd.Heartbeats] no oracle is
    anywhere and the whole §3 protocol runs on partial synchrony alone.
    When [obs] is given, every decision emits a [Decide] event and every
    change of the embedded ◇S suspect set emits
    [Suspect_add]/[Suspect_remove] events. *)
val process :
  ?obs:Ftss_obs.Obs.t ->
  n:int ->
  style:style ->
  propose:(Pid.t -> int -> value) ->
  detector:Esfd.source ->
  unit ->
  (state, msg, observation) Sim.process

(** {2 Systemic failures} *)

(** [corrupt_random rng ~instance_bound ~round_bound ~value_bound]
    draws an arbitrary state: random (instance, round) position, random
    estimate and timestamp (including timestamps far in the future, the
    adversarial case for estimate locking), random detector arrays, and a
    randomly forged previous-decision record. *)
val corrupt_random :
  Rng.t ->
  instance_bound:int ->
  round_bound:int ->
  value_bound:int ->
  Pid.t ->
  state ->
  state

(** [corrupt_parked ~round p st] plants every process mid-round [round] of
    instance 0, believing its phase-1 message was already sent. Under
    [Baseline] this deadlocks the whole system whenever the coordinator of
    [round] is never suspected; under [Self_stabilizing] retransmission
    dissolves it. *)
val corrupt_parked : round:int -> Pid.t -> state -> state

(** {2 Reports} *)

type decision = { d_time : int; d_pid : Pid.t; d_instance : int; d_value : value }

(** All decisions logged in a run, oldest first. *)
val decisions : (state, observation) Sim.result -> decision list

(** [per_instance ds ~correct] groups the correct processes' decisions by
    instance, sorted by instance. *)
val per_instance : decision list -> correct:Pidset.t -> (int * decision list) list

(** Instances on which two correct processes decided different values. *)
val disagreements : (int * decision list) list -> int list

(** Instances whose decided value is nobody's proposal for that instance
    (possible only while corrupted state is still being flushed out). *)
val invalid_instances :
  (int * decision list) list -> propose:(Pid.t -> int -> value) -> n:int -> int list

(** [stabilization_time result ~correct ~propose ~n] is the time of the
    last decision that violated agreement or validity, plus one — i.e.,
    the measured moment from which the protocol's visible behaviour is
    indistinguishable from a correctly-initialized run. [Some 0] when no
    violation ever occurred. *)
val stabilization_time :
  (state, observation) Sim.result ->
  correct:Pidset.t ->
  propose:(Pid.t -> int -> value) ->
  n:int ->
  int option

(** [fully_decided_after ds ~correct ~from] counts instances for which
    every correct process decided at a time >= [from] — the
    useful-work/progress metric. *)
val fully_decided_after : decision list -> correct:Pidset.t -> from:int -> int
