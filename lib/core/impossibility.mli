(** Executable reproductions of the paper's impossibility theorems.

    Both proofs are "by scenario": they construct executions that are
    indistinguishable to some process yet impose contradictory
    requirements. We run those scenarios on the simulator and check each
    step of the argument mechanically:

    - {b Theorem 1} (no finite stabilization time under Tentative
      Definition 1): two processes start with different (corrupted) round
      variables and are kept from communicating for [isolation] rounds by
      omission failures. The suffix after the isolation is shown to be
      {e literally identical} to a fresh fault-free execution G commencing
      in the suffix's initial state — so any protocol must treat them the
      same. Obeying the rate condition in the two "one of them is faulty"
      scenarios forces the round variables never to meet in G, violating
      agreement; conversely a protocol that reconciles them (the Figure 1
      protocol) must violate the rate condition at the reconciliation
      round. The report records both horns.

    - {b Theorem 2} (uniform protocols cannot ftss-solve anything): two
      processes never communicate. The local view of a process is
      identical whether it is the correct one or the faulty one, so a
      uniform protocol (Assumption 2: faulty processes halt or agree)
      must halt it in both scenarios — and halting a correct process
      violates the rate condition of Assumption 1. The report runs a
      "self-checking" strawman that halts after silence and a
      "never-halt" strawman, and shows each violates one horn. *)

open Ftss_util

module Theorem1 : sig
  type report = {
    isolation : int;  (** rounds of enforced non-communication *)
    gap_at_suffix : int;
        (** |c_p - c_q| when the isolation ends — nonzero, as the proof
            requires *)
    suffix_matches_fresh_run : bool;
        (** the key indistinguishability: H's suffix equals G, the
            fault-free execution started from the suffix's initial state *)
    rate_violation_round : int option;
        (** first suffix round where the Figure 1 protocol violates the
            rate condition (it must, to reconcile) *)
    rate_obeying_never_agrees : bool;
        (** the rate-obeying protocol (c := c + 1) never reaches
            agreement in the suffix *)
  }

  (** [run ~isolation ~c_p ~c_q ~suffix] executes the scenario. [c_p] and
      [c_q] are the corrupted initial round variables (must differ);
      [suffix] is how many fault-free rounds to observe after the
      isolation. Raises [Invalid_argument] if [c_p = c_q] or the interval
      parameters are non-positive. *)
  val run : isolation:int -> c_p:int -> c_q:int -> suffix:int -> report

  (** A report is consistent with Theorem 1 when the indistinguishability
      holds and both horns of the dichotomy are observed. *)
  val confirms_theorem : report -> bool
end

module Theorem2 : sig
  type report = {
    views_identical : bool;
        (** process 0's local view is the same whether it or its peer is
            the faulty one *)
    self_checking_halts_correct_process : bool;
        (** the halting strawman halts a {e correct} process, violating
            rate *)
    never_halting_violates_uniformity : bool;
        (** the non-halting strawman leaves a faulty process neither
            halted nor in agreement, violating Assumption 2 *)
  }

  (** [run ~silence_threshold ~c_p ~c_q ~rounds] executes the
      never-communicating scenario with both strawmen. *)
  val run : silence_threshold:int -> c_p:int -> c_q:int -> rounds:int -> report

  val confirms_theorem : report -> bool
end

(** {2 [KP90]: terminating protocols cannot tolerate systemic failures}

    The paper restricts attention to non-terminating protocols built by
    repeating a terminating sub-protocol, citing [KP90]: a terminating
    protocol's halt state is absorbing, so a systemic failure that
    plants a process in it (with a bogus or missing decision) can never
    be recovered from. This module runs the terminating ft-baseline of a
    canonical protocol from exactly that corruption, and the compiled
    (infinitely repeating) version from an equally corrupted state, and
    reports the contrast. *)
module Kp90 : sig
  type report = {
    baseline_ever_decides : bool;
        (** the corrupted-halted terminating run produces a decision in
            any suffix (it must not) *)
    compiled_decides_repeatedly : bool;
        (** the compiled version, from corrupted state, completes
            iterations with decisions *)
  }

  (** [run ~n ~f ~rounds] uses a minimum-pid-election canonical protocol
      as Π. *)
  val run : n:int -> f:int -> rounds:int -> report

  val confirms_claim : report -> bool
end

(** The local view of a process: for each round it participated in, its
    start-of-round state and the deliveries it received. Two executions
    are indistinguishable to a process iff its views are equal. The
    scenarios above compare views internally; the tests use [view] as
    the indistinguishability oracle for the suffix-closure property. *)
val view :
  ('s, 'm) Ftss_sync.Trace.t -> Pid.t -> ('s * (Pid.t * 'm) list) list
