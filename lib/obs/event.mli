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

(** Stable lowercase tag of the constructor ("drop", "suspect_add", ...),
    used for filtering and summaries. *)
val kind : t -> string

(** Every tag, in declaration order. *)
val kinds : string list

val to_json : t -> Json.t

(** Decode one event; [None] when the document is not a recognizable
    event record (unknown tag, missing field). Total inverse of
    {!to_json}. Fields it does not know are ignored, so traces written
    with the former per-event causal stamps ([eid], [vc]) still load. *)
val of_json : Json.t -> t option

(** One human-readable line, e.g. [t=12 drop 0->2 blame=0]. *)
val pp : Format.formatter -> t -> unit
