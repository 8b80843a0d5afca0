(** Sets of proposal values (integers) exchanged by the consensus
    protocols. *)

include Set.S with type elt = int
