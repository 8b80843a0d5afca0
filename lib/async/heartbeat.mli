(** An implemented (not scripted) Eventually Weak failure detector:
    heartbeats with adaptive timeouts, the standard construction under
    partial synchrony.

    Every process broadcasts a heartbeat on each tick and suspects s when
    no heartbeat from s has arrived within [timeout(s)]. When a suspicion
    proves false (a heartbeat from a suspected process arrives), the
    timeout for that process grows by [backoff]; after GST message delays
    are bounded, so each process makes only finitely many mistakes about
    each live peer and eventually suspects no correct process — giving
    eventual {e strong} accuracy, which implies the ◇W accuracy the
    paper's Figure 4 transform needs. Completeness is immediate: a
    crashed process stops heartbeating and times out everywhere.

    The detector is itself initialization-free: a corrupted [last_heard]
    entry is overwritten by the next heartbeat (or, if it pretends to be
    in the future, is clamped to the current time on the next tick); a
    corrupted oversized timeout merely delays completeness for that peer;
    a corrupted suspicion flag is recomputed continuously. *)

open Ftss_util

type t

type msg = Heartbeat

(** [create ~n ~initial_timeout ~backoff] is the good initial state. *)
val create : n:int -> initial_timeout:int -> backoff:int -> t

(** [corrupt rng ~time_bound ~timeout_bound t] draws arbitrary suspicion
    flags, timeouts and last-heard times, in that order. *)
val corrupt : Rng.t -> time_bound:int -> timeout_bound:int -> t -> t

(** [tick t ~self ~now] re-evaluates every peer's deadline; returns the
    new state. (The heartbeat broadcast itself is performed by the
    layer that embeds the detector, {!Esfd.Layer}.) *)
val tick : t -> self:Pid.t -> now:int -> t

(** [heard t ~src ~now] records a heartbeat: unsuspects [src], growing
    its timeout if it had been suspected. *)
val heard : t -> src:Pid.t -> now:int -> t

val suspected : t -> Pid.t -> bool
