(** Suspect-filtered flooding consensus — the general-omission-tolerant
    canonical protocol (f+2 rounds).

    Like {!Flooding_consensus}, but each process tracks (inside the
    full-information state, as Figure 2 permits) the processes from which
    it has ever missed an expected message, and ignores their messages
    from then on. With the filter, a correct process p accepts a message
    from q in protocol round k only if q delivered to p in every earlier
    round of the iteration; consequently a value first accepted by some
    correct process in round k must have travelled a chain of k-1
    {e distinct} faulty relays. With at most f faulty processes, running
    f+2 rounds guarantees every value held by a correct process at the end
    is held by all of them: they decide the common minimum.

    This is the intended input of the Figure 3 compiler under the paper's
    general-omission model, and mirrors the compiler's own suspect
    mechanism at the Π level. *)

open Ftss_util

type state = {
  values : Values.t;  (** values accepted so far *)
  distrusted : Pidset.t;
      (** processes that have missed an expected message; never listened
          to again within this iteration *)
}

(** [make ~n ~f ~propose] is the canonical protocol with
    [final_round = f + 2] for a system of [n] processes. *)
val make :
  n:int -> f:int -> propose:(Pid.t -> int) -> (state, int) Ftss_core.Canonical.t

(** [corrupt_state rng ~n] draws an arbitrary state: one to three random
    values below 49 and a random distrusted set — the systemic-failure
    corruption used in experiments. *)
val corrupt_state : Rng.t -> n:int -> Pid.t -> state -> state
