(** The structured-event taxonomy shared by every runtime layer.

    One event is one observable incident of an execution: a round boundary
    in the lockstep runner, a message movement (send/deliver/drop, the
    drop carrying the blamed endpoint), a process failure (crash) or
    systemic failure (state corruption), a failure-detector suspicion
    change, a consensus decision, a coterie-stable window boundary, or a
    model-checker case lifecycle step. Events are plain data: producers
    construct them only when a sink is attached (the zero-sink path of
    every instrumented component is allocation-free), and each encodes to
    one JSON Lines record via {!to_json}. *)

open Ftss_util

type body =
  | Round_begin  (** lockstep round [t] starts *)
  | Round_end  (** lockstep round [t] finished its transition *)
  | Send of { src : Pid.t; dst : Pid.t option }
      (** [src] sent a message; [dst = None] is the synchronous model's
          broadcast, [Some d] a point send in the asynchronous model *)
  | Deliver of { src : Pid.t; dst : Pid.t }
  | Drop of { src : Pid.t; dst : Pid.t; blame : Pid.t option }
      (** the [src -> dst] message was omitted; [blame] is the declared
          faulty endpoint charged with the omission, when known *)
  | Crash of { pid : Pid.t }
  | Corrupt of { pid : Pid.t }  (** systemic failure injected into [pid] *)
  | Suspect_add of { observer : Pid.t; subject : Pid.t }
  | Suspect_remove of { observer : Pid.t; subject : Pid.t }
  | Decide of { pid : Pid.t; instance : int; value : int }
  | Window_open  (** a coterie-stable window opens at prefix length [t] *)
  | Window_close of { opened : int; measured : int }
      (** the window that opened at [opened] closes at [t]; [measured] is
          the measured stabilization [d] within it *)
  | Case_start of { case : int }  (** checker case [case] dequeued *)
  | Case_verdict of { case : int; ok : bool; dedup : bool; states : int }
      (** checker verdict; [dedup] marks a fingerprint-cache hit *)
  | Coverage of { execs : int; corpus : int; points : int }
      (** fuzzer coverage grew: after [execs] executions the corpus holds
          [corpus] entries covering [points] distinct coverage points; the
          event stream of a fuzzing run is its coverage-growth curve *)
  | Submit of { pid : Pid.t; ops : int }
      (** [ops] client operations arrived at replica [pid]'s pending queue *)
  | Commit of { pid : Pid.t; slot : int; ops : int }
      (** replica [pid] learned the total-order decision for log slot
          [slot], a batch of [ops] operations *)
  | Apply of { pid : Pid.t; slot : int; digest : int }
      (** replica [pid] applied slot [slot] to its state machine; [digest]
          is the replica-state digest after the application — equal digests
          at equal slots witness convergence *)
  | Recover of { pid : Pid.t; slots : int }
      (** replica [pid] detected local inconsistency (corruption, or a log
          diverging from the quorum) and rebuilt; [slots] is the number of
          log entries re-fetched or re-validated *)

type t = {
  time : int;
      (** round number (sync), simulation time (async), or case index
          (checker) — each producer documents its clock *)
  body : body;
}

(** [make ~time body] builds an event — producers should use this rather
    than the record literal so the envelope can grow fields without
    touching every emission site. An event's causal place is not stored
    on it: {!Ftss_prov.Prov} derives happened-before from the stream. *)
val make : time:int -> body -> t

(** {2 The event format}

    The format is stated once, in {!kinds}: row [tag] describes the
    [tag]-th constructor of {!body} (declaration order, [tag < 32]) by
    its JSON name and its fields in JSON order. {!kind}, {!to_json},
    {!of_json}, {!pp}, the monitor's flight-recorder ring and
    [Prov]'s universe inference all read the row, so the format of a new
    kind is the constructor, one row, and one line each of {!pack_into}
    and {!unpack_from}. What a kind means stays with its consumers
    ([Metrics.record_event], [Prov]'s lanes, the monitors), whose
    exhaustive matches the compiler then lists. *)

(** How a field is stored. A field occupies one packed slot. *)
type field =
  | Int of string  (** any int *)
  | Pid of string  (** a pid in [0 .. Pidset.max_pid] *)
  | Opt_pid of string
      (** an optional pid: packed as [-1] when absent, and then left out
          of the JSON object *)
  | Flags of string list
      (** named bools, the [i]-th as bit [i] of the slot; each is its own
          JSON member *)

type spec = { name : string; fields : field list }

(** Every kind, indexed by tag. Row fields are at most three. *)
val kinds : spec array

(** Stable lowercase name of the constructor ("drop", "suspect_add",
    ...): [kinds.(tag).name], used for filtering and summaries. *)
val kind : t -> string

(** [pack_into d base ev] writes [ev] as the four ints
    [d.(base) .. d.(base + 3)] without allocating: word 0 is
    [(time lsl 5) lor tag], field [i] of the row goes to
    [d.(base + 1 + i)], and unused slots hold 0. The packed time is
    exact for [-2^57 <= time < 2^57]; every producer's clock stays far
    inside that. *)
val pack_into : int array -> int -> t -> unit

(** Inverse of {!pack_into}. Raises [Invalid_argument] on a tag outside
    {!kinds}. *)
val unpack_from : int array -> int -> t

val to_json : t -> Json.t

(** Decode one event; [None] when the document is not a recognizable
    event record: an unknown tag, a missing or mistyped required field,
    or a pid field outside [0 .. Pidset.max_pid]. An absent optional
    pid decodes to [None]. Total inverse of {!to_json}. Fields it does
    not know are ignored, so traces written with the former per-event
    causal stamps ([eid], [vc]) still load. *)
val of_json : Json.t -> t option

(** One human-readable line: [t=<time> <kind>], then the fields. Send,
    deliver and drop read [src->dst] ([->*] for a broadcast send) and a
    drop's [blame=pN]; the suspicion kinds read [pA suspects pB] and
    [pA trusts pB]. Every other kind renders its row: a pid as [pN], an
    int as [key=v], a flag as [key=true]/[key=false]. E.g.
    [t=12    drop p0->p2 blame=p0]. *)
val pp : Format.formatter -> t -> unit
