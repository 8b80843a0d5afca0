(** Atomic commitment in canonical (Figure 2) form, with the
    general-omission suspect filter: a compiler input the tests exercise
    (no experiment runs it).

    Every process votes Yes or No on a transaction; after f+2
    suspect-filtered full-information rounds the correct processes agree
    on Commit or Abort. The decision is Commit exactly when the process
    witnessed a Yes vote from {e every} process in the system; a missing
    or withheld vote therefore forces Abort — the standard conservative
    (weak, non-blocking) commit rule for omission environments.

    Agreement follows because the witnessed vote-sets of correct
    processes are equal at the end (the [Omission_consensus] chain
    argument applied to vote records); commit-validity: a failure-free
    all-Yes execution commits, and any No vote witnessed anywhere forces
    Abort everywhere. *)

open Ftss_util

type vote = Yes | No

type outcome = Commit | Abort

type state = {
  votes : vote Pidmap.t;  (** votes witnessed so far *)
  distrusted : Pidset.t;
}

val make :
  n:int -> f:int -> vote:(Pid.t -> vote) -> (state, outcome) Ftss_core.Canonical.t
