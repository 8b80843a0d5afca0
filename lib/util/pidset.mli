(** Sets of process identifiers — width-polymorphic immutable bitsets.

    Two representations live behind this interface, selected per set:

    - sets whose elements all fit in [0 .. 61] are a single immediate
      integer bitmask (bit [p] set iff pid [p] is in the set) — the
      one-word fast path, on which [union], [inter], [diff], [subset],
      [mem] and [equal] are a tag test plus one integer instruction and
      [cardinal] is a popcount;
    - sets reaching beyond pid 61 are an immutable int array of 62-bit
      words, processed word-at-a-time.

    The representation is canonical — a set that fits one word is always
    the immediate integer — so structural equality, ordering, hashing and
    marshalling agree with {!equal} across both forms, and
    every value that existed under the historic 62-process cap is
    bit-identical to what this module builds today (committed trace
    fingerprints for n <= 61 are preserved).

    Constructors accept any pid in [0 .. max_pid] and raise
    [Invalid_argument] outside it; membership queries for out-of-range
    pids simply answer [false], in either representation. These sets sit
    on the simulator's per-delivery hot path (suspect bookkeeping in the
    compiler, sender sets in the consensus protocols, [Faults.blame] on
    each dropped message).

    The interface mirrors the slice of [Set.S] the repository uses;
    iteration orders ([iter], [fold], [to_list]) are ascending
    by pid, exactly as with [Set.Make (Pid)]. *)

type elt = Pid.t
type t

(** Largest pid of the one-word representation: 61. Sets within
    [0 .. max_small] never allocate. *)
val max_small : int

(** Largest accepted pid (a sanity bound, not a representation limit):
    [add], [singleton], [of_list], [of_pred] and [full] raise
    [Invalid_argument] beyond it, in either representation. *)
val max_pid : int

val empty : t
val is_empty : t -> bool

(** [mem p s] — [false] (never an exception) for any pid outside the
    set's universe, including negatives and pids beyond [max_pid]. *)
val mem : elt -> t -> bool

val add : elt -> t -> t
val singleton : elt -> t

(** [remove p s] is the identity for out-of-range [p], never an
    exception. *)
val remove : elt -> t -> t

val union : t -> t -> t
val inter : t -> t -> t

(** [diff a b] is the set of elements of [a] not in [b]. *)
val diff : t -> t -> t

val cardinal : t -> int
val equal : t -> t -> bool

val subset : t -> t -> bool
val iter : (elt -> unit) -> t -> unit
val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (elt -> bool) -> t -> bool
val to_list : t -> elt list
val of_list : elt list -> t
val min_elt_opt : t -> elt option
val max_elt_opt : t -> elt option

val pp : Format.formatter -> t -> unit

(** [of_pred n pred] is the set of pids in [0 .. n-1] satisfying [pred].
    Raises [Invalid_argument] unless [0 <= n <= max_pid + 1], whichever
    representation the result needs. *)
val of_pred : int -> (Pid.t -> bool) -> t

(** [full n] is the set of all [n] pids. Raises [Invalid_argument]
    unless [0 <= n <= max_pid + 1]. *)
val full : int -> t
