(** Pluggable event consumers.

    A sink is a pair of callbacks; {!Obs.t} fans each emitted event out to
    every attached sink under one mutex, so sink implementations need no
    locking of their own. *)

type t = { emit : Event.t -> unit; close : unit -> unit }

val make : emit:(Event.t -> unit) -> close:(unit -> unit) -> t

(** [jsonl_file path] opens (truncating) [path] and writes one compact
    JSON document per event, newline-terminated (JSON Lines); [close]
    closes it. *)
val jsonl_file : string -> t

(** Pretty-prints one line per event. [kinds], when given, restricts
    output to events whose {!Event.kind} is listed — the filtering
    console sink. *)
val console : ?kinds:string list -> Format.formatter -> t
