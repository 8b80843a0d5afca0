(** Process-failure schedules for the synchronous simulator.

    The paper (§2) admits process failures of the {e general omission} type:
    crashes, send omissions and receive omissions. A schedule fixes, ahead of
    the execution, which failures the adversary injects in which round. The
    schedule also declares the set of faulty processes; {!Runner} records
    every injected failure in the trace so the declaration can be audited
    against what actually happened (the tests audit every runner trace
    this way). *)

open Ftss_util

(** A single adversarial event. Rounds are 1-based actual round numbers. *)
type event =
  | Crash of { pid : Pid.t; round : int }
      (** [pid] takes no action in [round] or any later round. *)
  | Drop of { src : Pid.t; dst : Pid.t; round : int }
      (** The message [src -> dst] of [round] is omitted. *)
  | Mute of { pid : Pid.t; first : int; last : int }
      (** All messages sent by [pid] to other processes in rounds
          [first..last] are omitted (send omission). *)
  | Deaf of { pid : Pid.t; first : int; last : int }
      (** All messages addressed to [pid] from other processes in rounds
          [first..last] are omitted (receive omission). *)
  | Isolate of { pid : Pid.t; first : int; last : int }
      (** [Mute] and [Deaf] combined: general omission. *)
  | Blame of { pid : Pid.t }
      (** Declare [pid] faulty without scheduling any misbehaviour. Used
          when the culprit of a point [Drop] is the {e receiver} (a
          receive omission): [of_events] alone would blame the sender, so
          a schedule charging the drop to its destination lists
          [Blame dst] ahead of the [Drop]. *)

type t

(** System size. *)
val n : t -> int

(** Declared faulty set (every process touched by an event). *)
val faulty : t -> Pidset.t

(** [crash_round t p] is the round in which [p] crashes, if any. *)
val crash_round : t -> Pid.t -> int option

(** [drops t ~round ~src ~dst] is true iff the adversary omits the
    [src -> dst] message of [round]. Self-messages are never dropped
    (paper footnote 1). A schedule is compiled into per-round rows of
    pid sets when it is built, so a query is a few membership tests;
    a round past the last one any omission names drops nothing. *)
val drops : t -> round:int -> src:Pid.t -> dst:Pid.t -> bool

(** [quiet_round t ~round] is true iff no omission of any kind is
    scheduled in [round] — every sent message is delivered, so a runner
    can build one delivery list and share it among all receivers. Every
    round of a crash-only schedule is quiet. *)
val quiet_round : t -> round:int -> bool

(** [none n] is the failure-free schedule. *)
val none : int -> t

(** [of_events ~n events] compiles an event list. Raises [Invalid_argument]
    on pids outside [0..n-1] or empty/negative round ranges. *)
val of_events : n:int -> event list -> t

(** [build ~n ~rounds fill] is [of_events ~n] of the events [fill]
    hands to its argument, in that order, without a list of them. Every
    omission must lie within rounds [1..rounds]; the rows then span those
    rounds, and queries answer as [of_events]'s, whose rows stop at the
    last round an omission names. Raises [Invalid_argument] as
    [of_events] does, and on an omission past [rounds]. *)
val build : n:int -> rounds:int -> ((event -> unit) -> unit) -> t

(** [random_omission rng ~n ~f ~p_drop ~rounds] draws [f] distinct faulty
    processes and, independently for each round and each directed link with
    a faulty endpoint, omits the message with probability [p_drop].
    Links between two correct processes are always reliable. *)
val random_omission : Rng.t -> n:int -> f:int -> p_drop:float -> rounds:int -> t

(** [rolling_mute ~n ~victim ~period ~rounds] mutes [victim] on an
    on/off cadence: silent for [period] rounds, talking for [period]
    rounds, repeating until [rounds]. Every reveal is a destabilizing
    event (the victim re-enters the coterie), so a history under this
    schedule alternates coterie-stable windows with destabilizations —
    the repeated-piece-wise-stability stress. *)
val rolling_mute : n:int -> victim:Pid.t -> period:int -> rounds:int -> t

(** [blame t ~src ~dst] is the declared-faulty endpoint charged with an
    omission on the [src -> dst] link, preferring the sender when both
    are declared (mirroring the ambiguity rule of {!of_events}). [None]
    when neither endpoint is declared faulty — a schedule inconsistent
    with its own blame obligation. Used to annotate drop events in the
    observability stream. *)
val blame : t -> src:Pid.t -> dst:Pid.t -> Pid.t option

val pp : Format.formatter -> t -> unit
