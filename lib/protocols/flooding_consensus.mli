(** Min-value flooding consensus in canonical (Figure 2) form — the
    classic f+1-round protocol for {e crash} failures.

    Every process floods the set of values it has seen; after f+1 rounds
    all correct processes hold the same set (a new value surviving to the
    last round would require a chain of f+1 distinct crashed processes)
    and decide its minimum.

    This protocol ft-solves consensus under crash failures only. Under
    general omission it is {e incorrect}: a faulty process can withhold a
    small value from everyone and reveal it to a single correct process in
    the last round (the tests run such a schedule against it and against
    the suspect-filtered {!Omission_consensus}, which closes the hole). We
    keep it both as the simplest compiler input and as an executable
    record of that boundary. *)

open Ftss_util

type state = Values.t

(** [make ~f ~propose] is the canonical protocol with
    [final_round = f + 1]; process [p] proposes [propose p]. *)
val make : f:int -> propose:(Pid.t -> int) -> (state, int) Ftss_core.Canonical.t
