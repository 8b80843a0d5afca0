(** Deterministic discrete-event simulation of an asynchronous
    message-passing system with crash failures and partial synchrony.

    Asynchrony is modelled GST-style (Dwork-Lynch-Stockmeyer / the
    standard way "eventually" is realised for ◇-failure-detectors): before
    a global stabilization time [gst] message delays are drawn from a wide
    adversarial range, after it from a narrow one; process steps are
    driven by periodic local ticks. Every random choice comes from the
    seeded generator in the config, so runs are replayable.

    Systemic failures are modelled exactly as in the synchronous
    substrate: a per-pid corruption schedule rewrites a process's state,
    at time 0 (the protocol-specified initial state) or mid-run;
    [spurious] additionally plants adversarial messages in the channels
    (the KP90 concern that the initial state "falsely indicates that
    every process has sent a message"). *)

open Ftss_util

type time = int

(** What a step may do, accumulated through the context handle. *)
type ('m, 'o) ctx

(** [send ctx dst msg] enqueues a point-to-point message. *)
val send : ('m, 'o) ctx -> Pid.t -> 'm -> unit

(** [broadcast ctx msg] sends to every process, the sender included
    (delivered through the network like any other message). *)
val broadcast : ('m, 'o) ctx -> 'm -> unit

(** [observe ctx o] appends an observation to the run's log — the
    mechanism by which protocols expose decisions, suspicions, etc. to
    the checkers without the engine snapshotting whole states. *)
val observe : ('m, 'o) ctx -> 'o -> unit

(** Current simulated time. *)
val now : ('m, 'o) ctx -> time

(** The stepping process's own pid. *)
val self : ('m, 'o) ctx -> Pid.t

type ('s, 'm, 'o) process = {
  name : string;
  init : Pid.t -> 's;
  on_message : ('m, 'o) ctx -> 's -> src:Pid.t -> 'm -> 's;
  on_tick : ('m, 'o) ctx -> 's -> 's;
}

type config = {
  n : int;
      (** system size, at most 4096: event descriptors pack the source
          and destination pids into 12-bit fields of an int tag, so the
          engine stays allocation-free per event at any accepted [n] *)
  seed : int;
  gst : time;  (** global stabilization time *)
  delay_before_gst : int * int;  (** inclusive delay range before GST *)
  delay_after_gst : int * int;  (** inclusive delay range after GST *)
  tick_interval : int;  (** period of local timers; >= 1 *)
  crashes : (Pid.t * time) list;  (** pid stops processing at that time *)
  horizon : time;  (** simulation end time *)
}

val default_config : n:int -> seed:int -> config
(** 5 processes' worth of sane defaults: [gst = 500],
    [delay_before_gst = (1, 120)], [delay_after_gst = (1, 8)],
    [tick_interval = 10], no crashes, [horizon = 5000] (n and seed as
    given). *)

type ('s, 'o) result = {
  final_states : 's option array;  (** [None] = crashed *)
  log : (time * Pid.t * 'o) list;  (** observations, oldest first *)
  delivered : int;  (** messages delivered *)
  dropped_after_crash : int;  (** messages addressed to crashed processes *)
  dropped_by_adversary : int;  (** messages suppressed by the [?drop] matrix *)
  end_time : time;
}

(** [run ?obs ?corrupt_at ?drop ?spurious config process] executes until
    the horizon (or until the event queue drains).

    [corrupt_at] is the corruption schedule: each [(time, pid, f)] entry
    rewrites [pid]'s state to [f state] at that simulated time. Time 0
    is the initial state — the entry applies before any tick or
    delivery; a later time is a mid-run transient fault (a "corruption
    storm" is a batch of such entries). The victim takes no step at the
    fault itself; it runs on the scrambled state from its next delivery
    or tick. Entries at one time apply in list order, and an entry for a
    process already crashed at its time is skipped.

    [spurious (time, src, dst, msg)] events are injected into the
    channels at start-up. [drop], when given, is an omission adversary
    consulted at send time: a message from [src] to [dst] sent at [time]
    is silently suppressed when the predicate holds. Self-messages are
    exempt (the synchronous substrate's rule), and a suppressed message
    draws no delay from the generator — the delivery schedule of the
    surviving messages is therefore a function of the drop {e pattern}
    only, keeping runs replayable under any deterministic matrix.

    When [obs] is given, the engine emits the run's event stream: one
    [Corrupt] per applied [corrupt_at] entry at its time, one point
    [Send] per enqueued message at its send time, [Deliver] at its
    delivery time, [Drop] (blaming the receiver) for messages addressed
    to a crashed process and [Drop] with no blame for adversary
    suppressions, and [Crash] once per crashed process, timestamped with
    its crash time. With [obs] absent the instrumentation allocates
    nothing.

    Raises [Invalid_argument] on non-positive [tick_interval] or
    [horizon], an [n] outside [1..4096], a crash or [corrupt_at] pid
    outside the system, or a negative [corrupt_at] time. *)

val run :
  ?obs:Ftss_obs.Obs.t ->
  ?profile:Ftss_profile.Profile.lane ->
  ?corrupt_at:(time * Pid.t * ('s -> 's)) list ->
  ?drop:(time:time -> src:Pid.t -> dst:Pid.t -> bool) ->
  ?spurious:(time * Pid.t * Pid.t * 'm) list ->
  config ->
  ('s, 'm, 'o) process ->
  ('s, 'o) result
(** [?profile] attributes the event loop to the span profiler's
    [sim_pop] / [sim_deliver] / [sim_dispatch] phases on the given lane,
    chaining clock reads so the armed cost is ~2 reads per event;
    handler-internal spans (the service tower's [svc_*] phases) nest
    inside the handler frame and are subtracted from its self-time.
    Unset, the loop runs exactly as before up to one option test per
    event — the same zero-cost discipline as [?obs]. *)

(** [correct_set config] is the set of processes that do not crash
    within the horizon: the correct processes of an asynchronous run. *)
val correct_set : config -> Pidset.t

(** When a run behaves correctly for good (Definition 2.4, Theorem 5). *)
type verdict =
  | Stabilized of time  (** from this time on, through the run's end *)
  | Not_within_horizon
  | Vacuous  (** some correct process was never judged *)

(** [settle config observations] is the one settle rule of the
    asynchronous analyzers ({!Esfd.analyze},
    {!Consensus.stabilization_time}, {!Drift.analyze}). Each observation
    [(time, pid, violates)] is one judged observation of [pid]; those of
    processes outside [correct_set config] are ignored. Let [from] be the
    time of the last violation plus 1, or 0 if nothing violates. The
    verdict is [Vacuous] if some correct process made no observation,
    [Stabilized from] if every correct process made one at or after
    [from], and [Not_within_horizon] otherwise.

    The synchronous [Ftss_core.Solve.measured_per_window] is another
    quantity, not another settle rule: it judges Σ, a predicate on a
    sub-history of all processes, afresh in each maximal coterie-stable
    window, where a fault ends the window instead of pushing [from]
    later, and it yields a per-window delay, not a time. *)
val settle : config -> (time * Pid.t * bool) list -> verdict
