(** Σ⁺ — the repeated problem solved by compiled protocols (§2.4).

    The compiler's Π⁺ infinitely repeats Π; the problem Σ⁺ it solves holds
    of a history that decomposes into consecutive segments each satisfying
    Σ. For the consensus-style Πs in this library, Σ per iteration means:
    all correct processes complete the iteration in the same actual round,
    all of them decide, the decisions are equal, and the decision is a
    legal value. This module extracts iteration completions from compiled
    traces and packages Σ⁺ as a {!Ftss_core.Spec.t} usable with
    {!Ftss_core.Solve.ftss_solves}. *)

open Ftss_util

type 'd completion = {
  round : int;  (** trace round at whose end the iteration completed *)
  pid : Pid.t;
  iteration : int;  (** index derived from the round variable *)
  decision : 'd option;
}

(** [completions trace] lists every iteration completion of every process
    (faulty ones included), in round order. *)
val completions :
  (('s, 'd) Ftss_core.Compiler.state, 'm) Ftss_sync.Trace.t -> 'd completion list

(** [decisions_by_round trace ~faulty] groups the correct processes'
    completions by round. *)
val decisions_by_round :
  (('s, 'd) Ftss_core.Compiler.state, 'm) Ftss_sync.Trace.t ->
  faulty:Pidset.t ->
  (int * 'd completion list) list

(** [sigma_plus ~final_round ~valid ()] is Σ⁺ for a consensus-style Σ:
    whenever a correct process completes an iteration in a round, every
    correct process alive through that round completes in the same round,
    with equal, present, [valid] decisions. Rounds without completions
    impose nothing (Σ⁺ constrains whole iterations; the enclosing
    stabilization window guarantees at least one complete iteration when
    it is long enough). *)
val sigma_plus :
  final_round:int ->
  valid:('d -> bool) ->
  unit ->
  (('s, 'd) Ftss_core.Compiler.state, 'm) Ftss_core.Spec.t

(** [round_and_sigma ~final_round ~valid ()] conjoins Assumption 1 on the
    compiled round variable with [sigma_plus] — the full obligation of
    Theorem 4. *)
val round_and_sigma :
  final_round:int ->
  valid:('d -> bool) ->
  unit ->
  (('s, 'd) Ftss_core.Compiler.state, 'm) Ftss_core.Spec.t

(** [count_agreeing_iterations trace ~faulty] is
    [(completed, agreeing)]: the number of rounds with at least one
    correct-process completion, and how many of those had every correct
    process completing with equal valid decisions — the measurement used
    by the E2 benchmark. *)
val count_agreeing_iterations :
  (('s, 'd) Ftss_core.Compiler.state, 'm) Ftss_sync.Trace.t ->
  faulty:Pidset.t ->
  valid:('d -> bool) ->
  int * int

(** {2 Repeated asynchronous consensus driver}

    The async §3 protocol already repeats internally (instance 0, 1, 2,
    ... inside one {!Ftss_async.Sim} run); the service tower builds on
    that. This driver runs each instance in a simulation of its own
    (config, channels, detector oracle), all sharing one
    {!Ftss_async.Sim.pool}, so the event-queue arena is cleared and
    reused rather than reallocated per instance. *)

type async_outcome = {
  instances_decided : int;  (** instances with at least one decision *)
  decisions : int;  (** total decision records across all processes *)
  disagreements : int;
      (** internal instances, summed over the simulations, on which two
          correct processes decided differently *)
  end_time : int;  (** latest simulated clock reached *)
}

(** [run_async ~n ~seed ~style ~propose ~instances ~horizon_per_instance
    ()] runs [instances] simulations of [horizon_per_instance] time units
    (plus the GST prefix); simulation [i] has seeds derived from
    [seed + 2i] and hosts logical instance [i], proposing [propose p
    (i + j)] for its internal instance [j]. An instance counts as decided
    when its simulation decides its first internal instance. Reusing the
    pool changes only the allocation profile: outcomes are those of
    fresh pools. *)
val run_async :
  ?obs:Ftss_obs.Obs.t ->
  n:int ->
  seed:int ->
  style:Ftss_async.Consensus.style ->
  propose:(Pid.t -> int -> int) ->
  instances:int ->
  horizon_per_instance:int ->
  unit ->
  async_outcome
