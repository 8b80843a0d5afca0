(** Deterministic pseudo-random number generation (splitmix64).

    Every randomized experiment in this repository draws from an explicit
    [Rng.t] created from an integer seed, so that every adversary schedule,
    corruption and message delay is replayable. *)

type t

(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)
val create : int -> t

(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent stream. *)
val split : t -> t

(** [bits64 t] is the next raw 64-bit output, the stream every draw
    below is derived from. No production caller reads it directly; the
    tests' stream pins are recorded against it. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [lo, hi] inclusive. Raises
    [Invalid_argument] if [lo > hi]. *)
val int_in : t -> int -> int -> int

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [chance t p] is true with probability [p] (clamped to [0,1]). *)
val chance : t -> float -> bool

(** [float t bound] is uniform in [0, bound). *)
val float : t -> float -> float

(** [pick t xs] is a uniformly random element of [xs]. Raises
    [Invalid_argument] on the empty list. *)
val pick : t -> 'a list -> 'a

(** [sample t k xs] is a uniformly random subset of [k] elements of [xs]
    (all of [xs] if [k >= List.length xs]), in stable order. *)
val sample : t -> int -> 'a list -> 'a list
