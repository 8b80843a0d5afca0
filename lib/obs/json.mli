(** A minimal, dependency-free JSON representation.

    The observability layer serializes events (JSON Lines trace files) and
    metrics snapshots (single JSON documents) and parses them back for the
    [ftss trace] summarizer, so both directions live here rather than in an
    external package the build image may not carry. The encoder emits
    compact single-line documents; the decoder accepts any
    whitespace-separated standard JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) encoding. Non-finite floats encode as [null]
    (JSON has no NaN/infinity). *)
val to_string : t -> string

(** Parse one JSON document. Trailing input after the document is an
    error, as is any malformed input; the message carries a byte offset. *)
val of_string : string -> (t, string) result

(** [member key json] is the value bound to [key] when [json] is an
    object containing it. *)
val member : string -> t -> t option

val to_int_opt : t -> int option

(** [to_float_opt] accepts both [Int] and [Float]. *)
val to_float_opt : t -> float option

val to_bool_opt : t -> bool option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
