(** Round agreement for synchronous-but-not-perfectly-synchronized
    systems — the adaptation §3's opening sentence claims is routine,
    made executable.

    Processes step on local timers with staggered phases (no two
    processes step at the same instant) and message delays are bounded
    but not constant. Each local step plays the role of a Figure 1 round:
    broadcast the round variable, then adopt [max(seen) + 1]. Because
    steps interleave, exact agreement is unattainable; the adapted
    guarantee is {e neighbourhood agreement}: once the system has been
    stable for one local round, the round variables of correct processes
    span at most [2 + ceil(max_delay / tick_interval)] consecutive values
    (one unit of adoption lag, the delay staleness, and one unit of phase
    stagger) and advance at one per local round — and this from arbitrary
    corrupted round variables, under crashes of the faulty processes.
    Perfectly synchronous lockstep delivery recovers Figure 1's exact
    agreement. *)

open Ftss_util

type state

type msg = int
(** The (ROUND: p, c) broadcast. *)

type observation = Round_variable of int
(** Each process's round variable, observed at every local step. *)

val process : (state, msg, observation) Sim.process

(** [corrupt rng ~bound] scrambles the round variable, as a systemic
    failure does. *)
val corrupt : Rng.t -> bound:int -> Pid.t -> state -> state

type report = {
  converged : Sim.verdict;
      (** {!Sim.settle} over each correct process's round variable once
          every correct process has reported: it violates when the
          latest round variables span more than [spread_bound] *)
  final_spread : int;  (** spread over the run's last samples *)
}

(** [spread_bound config] is the claimed neighbourhood bound
    [2 + ceil(max_delay / tick_interval)] for the config's parameters. *)
val spread_bound : Sim.config -> int

(** [analyze result ~config] checks neighbourhood agreement over the run
    against {!spread_bound}[ config]. *)
val analyze : (state, observation) Sim.result -> config:Sim.config -> report
