(** Process identifiers.

    Processes in a system of size [n] are identified by the integers
    [0 .. n-1]. The type is kept abstract-by-convention (it is [= int]) so
    that call sites read as [Pid.t] rather than bare integers. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** [all n] is the list of the [n] pids [0 .. n-1]. Raises
    [Invalid_argument] if [n < 0]. *)
val all : int -> t list

(** [is_valid ~n p] is true iff [p] identifies a process in a system of
    [n] processes. *)
val is_valid : n:int -> t -> bool
