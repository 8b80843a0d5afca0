(** Terminating reliable broadcast in canonical (Figure 2) form, with the
    general-omission suspect filter: a compiler input the tests exercise
    (no experiment runs it).

    A designated sender starts with a value; after f+2 suspect-filtered
    full-information rounds every correct process delivers the same
    outcome: [Some v] (the sender's value) or [None] ("sender faulty",
    the ⊥ outcome). Agreement follows from the distinct-faulty-relay
    chain argument of {!Omission_consensus}; validity: if the sender is
    correct, its round-1 broadcast reaches every correct process, so all
    deliver [Some v]; integrity: in the omission model values cannot be
    forged, so a delivered value is the sender's (systemically corrupted
    relays are flushed at each iteration reset).

    Compiled with {!Ftss_core.Compiler}, the repetition is a
    self-stabilizing broadcast channel from the sender — the primitive
    the paper's reliable-broadcast references ([GT89]) study. *)

open Ftss_util

type state = {
  relayed : int option;  (** the sender's value, once learned *)
  distrusted : Pidset.t;
}

val make :
  n:int -> f:int -> sender:Pid.t -> value:int -> (state, int option) Ftss_core.Canonical.t
(** [make ~n ~f ~sender ~value] — [value] is what [sender] broadcasts.
    The decision is [Some value] or [None] (= ⊥). Raises
    [Invalid_argument] if [sender] is not a pid of the system. *)
