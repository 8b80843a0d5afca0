(** Small descriptive-statistics helpers for experiment reports. *)

(** [mean xs] is the arithmetic mean. Raises [Invalid_argument] on []. *)
val mean : float list -> float

(** [percentile p xs] is the [p]-th percentile (nearest-rank), [p] in
    [0,100]. Raises [Invalid_argument] on [] or [p] out of range. *)
val percentile : float -> float list -> float

val max : float list -> float
