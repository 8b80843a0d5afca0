(** Problems as predicates on histories (paper §2.1).

    A problem Σ is a predicate on a history H and a set F of processes
    faulty in H. A spec value packages Σ together with a name for
    reporting. Specs are evaluated on {!Ftss_sync.Trace.t} values — both
    whole histories and the sub-histories that the solving definitions
    (Defs. 2.1, 2.2, 2.4) quantify over. *)

open Ftss_util

type ('s, 'm) t = {
  name : string;
  holds : ('s, 'm) Ftss_sync.Trace.t -> faulty:Pidset.t -> bool;
}

(** [conj name specs] is satisfied when every conjunct is. *)
val conj : string -> ('s, 'm) t list -> ('s, 'm) t

(** {2 Assumption 1}

    Round-based problems require the correct processes to agree on the
    round number in every round, and to increment it by one at the end of
    each round. [round_of] extracts the process's round variable c_p from
    its state. *)

(** Both conditions of Assumption 1: agreement (all correct processes
    have equal round variables at the start of every round of the
    history) and rate (every correct process's round variable increases
    by exactly one between consecutive rounds). The transition out of
    the final round is not constrained: a sub-history ending at a
    destabilizing event may end with a legitimate reconciliation jump
    (Theorem 3 claims agreement only for rounds inside the stable
    window). *)
val assumption1 : round_of:('s -> int) -> ('s, 'm) t
