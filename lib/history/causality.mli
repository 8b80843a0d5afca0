(** Happened-before and coteries over recorded histories (paper §2.1, Def. 2.3).

    The paper defines the {e coterie} of a history H as the set of processes
    p such that p →_H q for every correct process q, where →_H is Lamport's
    happened-before relation. We compute →_H exactly from a trace by
    propagating {e knowledge sets}: K_r(p) is the set of processes that
    executed some event causally preceding p's state at the end of round r
    (p itself included — a process trivially reaches itself through its own
    events and its self-delivered broadcasts).

    Because a round-based full-mesh execution only ever adds causal paths,
    the coterie of a prefix is monotone non-decreasing in the prefix length;
    the {e destabilizing events} of §2.1 are exactly the rounds at which the
    coterie grows. *)

open Ftss_util

type t

(** [analyze trace] reads the knowledge sets [trace]'s records carry
    ({!Ftss_sync.Trace.round_record}[.know]) — or, for a
    {!Ftss_sync.Trace.sub} window, propagates the window's own with
    {!Ftss_sync.Trace.knowledge} — and intersects them into the prefix
    coterie of every round: O(rounds * n) set operations. *)
val analyze : ('s, 'm) Ftss_sync.Trace.t -> t

(** [changes t] lists the destabilizing events: rounds [r >= 1] where the
    coterie grew, together with the processes that entered. *)
val changes : t -> (int * Pidset.t) list

(** [stable_intervals t] partitions [0 .. length t] into the maximal
    intervals [(x, y)] on which the prefix coterie is constant. Intervals
    are returned earliest first and cover the whole range. *)
val stable_intervals : t -> (int * int) list

(** {2 The differential oracle}

    Production reads only {!analyze}, {!changes} and {!stable_intervals}.
    The queries below are the reference the tests hold
    [Ftss_prov.Prov]'s event-DAG cones to: exact knowledge sets and Def.
    2.3 coteries, computed from the runner's own propagation. *)

(** Number of rounds of the underlying trace. *)
val length : t -> int

(** The correct set used for coterie computation (declared-correct of the
    trace). *)
val correct : t -> Pidset.t

(** [knows t ~round p] is K_round(p): everyone with an event
    happened-before p's state at the end of [round]. [round] ranges over
    [0 .. length t]; K_0(p) = {p}. *)
val knows : t -> round:int -> Pid.t -> Pidset.t

(** [happened_before t ~upto p q] is true iff p →_H' q where H' is the
    [upto]-round prefix. Reflexive by convention (see above). *)
val happened_before : t -> upto:int -> Pid.t -> Pid.t -> bool

(** [coterie t ~round] is the coterie of the [round]-prefix of the history
    (Def. 2.3): processes that happened-before every correct process.
    [coterie ~round:0] is the empty set for systems with >= 2 correct
    processes. *)
val coterie : t -> round:int -> Pidset.t

