(** Σ⁺ — the repeated problem solved by compiled protocols (§2.4).

    The compiler's Π⁺ infinitely repeats Π; the problem Σ⁺ it solves holds
    of a history that decomposes into consecutive segments each satisfying
    Σ. For the consensus-style Πs in this library, Σ per iteration means:
    all correct processes complete the iteration in the same actual round,
    all of them decide, the decisions are equal, and the decision is a
    legal value. This module extracts iteration completions from compiled
    traces and packages Σ⁺ as a {!Ftss_core.Spec.t} usable with
    {!Ftss_core.Solve.ftss_solves}.

    Everything here is synchronous. The asynchronous §3 protocol repeats
    consensus inside one simulation, and its one driver is
    [Ftss_async.Consensus]. *)

open Ftss_util

type 'd completion = {
  round : int;  (** trace round at whose end the iteration completed *)
  pid : Pid.t;
  iteration : int;  (** index derived from the round variable *)
  decision : 'd option;
}

(** [decisions_by_round trace ~faulty] groups the correct processes'
    completions by round. *)
val decisions_by_round :
  (('s, 'd) Ftss_core.Compiler.state, 'm) Ftss_sync.Trace.t ->
  faulty:Pidset.t ->
  (int * 'd completion list) list

(** [round_and_sigma ~final_round ~valid ()] conjoins Assumption 1 on the
    compiled round variable with Σ⁺ for a consensus-style Σ — the full
    obligation of Theorem 4. Σ⁺: whenever a correct process completes an
    iteration in a round, every correct process alive through that round
    completes in the same round, with equal, present, [valid] decisions.
    Rounds without completions impose nothing (Σ⁺ constrains whole
    iterations; the enclosing stabilization window guarantees at least
    one complete iteration when it is long enough). *)
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
