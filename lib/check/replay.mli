(** Replayable counterexample files.

    A shrunk counterexample is written as one JSON document (through
    {!Ftss_obs.Json}, like every other artefact of the tooling) so it
    can be attached to a bug report, read by any JSON tool, and
    re-executed deterministically with [ftss replay FILE]. Example:

    {v
{"format":"ftss-counterexample","version":2,"property":"theorem3",
 "inject":"frozen-exchange",
 "params":{"n":3,"rounds":3,"f":1,"intervals":true,"drops":true},
 "corruption":"distinct",
 "schedule":[{"kind":"crash","pid":2,"round":1},
             {"kind":"mute","pid":0,"first":1,"last":2}]}
    v}

    The corruption is ["clean"], ["zero"], ["max"], ["distinct"] or
    [{"parked":k}]; schedule entries are [crash] ([round]), [mute],
    [deaf], [isolate] ([first], [last]), [send-drop] ([round], [dst])
    and [recv-drop] ([round], [src]).

    Reading is strict: unknown properties, missing or mistyped fields,
    out-of-range pids/rounds and schedules over the fault budget are
    reported as [Error _], never guessed. A version-1 file (the former
    S-expression format) is not read; its error says to re-run
    [check --out]. *)

type t = {
  property : string;
  inject : string;
  case : Schedule_enum.t;
}

(** The document {!save} writes and {!load} parses. *)
val to_string : t -> string

(** [save path t] writes [to_string t] to [path]. *)
val save : string -> t -> unit

(** [load path] reads and parses [path]. *)
val load : string -> (t, string) result

(** [replay t] re-resolves the property and executes the case, returning
    its verdict. [Ok v] with [v.ok = false] means the counterexample
    reproduced. With [?obs] the re-execution is traced through the hub
    — the provenance path. *)
val replay : ?obs:Ftss_obs.Obs.t -> t -> (Property.verdict, string) result
