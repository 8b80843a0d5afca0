(** Maps keyed by process identifiers. *)

include Map.S with type key = Pid.t
