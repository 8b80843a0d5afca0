(** The compiler of §2.4 (Figure 3): superimposing round agreement onto a
    canonical protocol Π to obtain Π⁺, a protocol tolerant of both process
    and systemic failures.

    Π⁺ infinitely repeats Π. Each message of Π is tagged with the sender's
    round variable; each process maintains a [suspects] set of processes
    whose messages are ignored when updating Π's state — a process is
    suspected when an expected message for the receiver's current round
    number did not arrive (either omitted, or carrying a different round
    tag). The round variable is updated exactly as in the Figure 1 round
    agreement protocol, and when the (normalized) round variable wraps to
    1, Π's state and the suspect set are reset so a fresh iteration of Π
    begins.

    Theorem 4: if Π ft-solves Σ, then Π⁺ ftss-solves Σ⁺ (the infinite
    repetition of Σ) with stabilization time [final_round] — plus up to
    another [final_round] when systemic corruption planted correct
    processes in the initial suspect sets (§2.4, last paragraph). *)

open Ftss_util

(** [normalize ~final_round c] maps the unbounded round variable into Π's
    protocol rounds [1 .. final_round]: [((c - 1) mod final_round) + 1].
    (The paper prints [c mod final_round + 1], which maps the good initial
    state c = 1 to protocol round 2, contradicting Figure 2; we use the
    intent-preserving phase — see DESIGN.md.) Total on corrupted
    (negative) values. *)
val normalize : final_round:int -> int -> int

type ('s, 'd) state = {
  s : 's;  (** the controlled protocol's state s_p *)
  c : int;  (** the round variable c_p (unbounded) *)
  suspects : Pidset.t;  (** the suspect set *)
  last_decision : 'd option;
      (** output register: decision of the most recently completed
          iteration. Write-only: never read by the protocol, so a
          corrupted value is harmless and is overwritten at the next
          iteration boundary. *)
  completed : int;
      (** output register: iterations completed since this state was
          created (observability only). *)
}

type 's message = { state : 's; round : int }
(** The tagged broadcast ((STATE: p, s), (ROUND: p, c)). *)

(** [compile ~n pi] is Π⁺ for a system of [n] processes. ([n] is needed
    because the suspect-set update quantifies over all processes "to all"
    of which Π⁺ broadcasts.)

    [suspect_filter] (default true) controls whether messages from
    suspected processes are withheld from Π's transition — the mechanism
    §2.4 introduces to insulate Π from out-of-date messages. Setting it to
    false is an ablation: a faulty process whose round variable lags can
    then feed stale state into some correct processes but not others
    (those it omitted to, which distrust it at the Π level), breaking
    agreement forever — see experiment E8. *)
val compile :
  ?suspect_filter:bool ->
  n:int ->
  ('s, 'd) Canonical.t ->
  (('s, 'd) state, 's message) Ftss_sync.Protocol.t

(** Assumption 1 over the compiled round variable: the round agreement
    part of what Π⁺ guarantees. *)
val round_spec : unit -> (('s, 'd) state, 'm) Spec.t

(** Theorem 4's stabilization bound for [pi], including the suspect-reset
    allowance: [2 * final_round]. *)
val stabilization_bound : ('s, 'd) Canonical.t -> int

(** [corrupt rng ~pi ~c_bound ~corrupt_s] builds a systemic-failure
    corruption for compiled states: the round variable becomes uniform in
    [0, c_bound), the suspect set a uniformly random subset of processes,
    and the inner state is rewritten by [corrupt_s]. *)
val corrupt :
  Rng.t ->
  pi:('s, 'd) Canonical.t ->
  n:int ->
  c_bound:int ->
  corrupt_s:(Rng.t -> Pid.t -> 's -> 's) ->
  Pid.t ->
  ('s, 'd) state ->
  ('s, 'd) state
