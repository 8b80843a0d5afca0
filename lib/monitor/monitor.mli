(** Streaming runtime verification for the service tower.

    A {!t} is a bundle of incremental monitors attached to an
    observability hub through {!Ftss_obs.Obs.add_sink}. Each
    monitor maintains O(1)-per-event state and turns the paper's
    after-the-fact measurements into online SLOs:

    - {b stab} — the fault-quiescence window tracker. Every environment
      fault (crash, corruption, omission) refreshes [last_fault]; every
      [Recover] at distance [d] from it is disorder evidence, so the
      running maximum of [d] is the online analogue of Definition 2.4's
      stabilization time. Alarms once per fault epoch when [d] exceeds
      the budget.
    - {b heal} — the TOB divergence watchdog. A [Corrupt] opens a
      per-replica episode closed by that replica's next [Apply]; the
      gap feeds a log-bucketed histogram, and the watchdog alarms both
      on late heals and (lazily, against event time) on replicas still
      unhealed past the budget. A [Crash] closes the episode without
      alarm — dead replicas never apply.
    - {b latency_p99} — streaming commit-latency quantiles. [Submit]
      opens a per-proposer stopwatch closed by its next [Commit];
      samples land in a {!Ftss_obs.Metrics.lhist}, whose p99 is checked
      against the budget every few hundred samples and at {!finalize}.
    - {b drop_rate} — per-link omission EWMAs over [Deliver]/[Drop]
      outcomes, alarming once per link over budget.
    - {b churn} — a time-decayed suspicion-churn rate (events/tick)
      over [Suspect_add]/[Suspect_remove].

    Every monitor tracks unconditionally — [ftss watch] renders the
    same state with no budgets armed; budgets only arm alarms. The
    bundle also keeps a preallocated flight-recorder ring of the most
    recent events; {!Recorder.snapshot} dumps it with the causal cone
    of the alarm-triggering event. *)

open Ftss_obs

(** Per-monitor SLO budgets; [None] leaves that monitor tracking but
    never alarming. *)
type budgets = {
  stab : int option;
  heal : int option;
  p99 : float option;
  drop_rate : float option;
  churn : float option;
}

val no_budgets : budgets

(** Parse a [--slo] spec: comma-separated [key=value] with keys [stab],
    [heal] (ticks, int), [p99] (ticks), [drop] (rate in [0,1]), [churn]
    (events/tick). Example: ["heal=120,stab=400,p99=800"]. *)
val budgets_of_string : string -> (budgets, string) result

type alarm = {
  monitor : string;  (** [stab], [heal], [latency_p99], [drop_rate] or [churn] *)
  time : int;
  detail : string;
  event : Event.t;  (** the triggering event, physically present in the ring *)
}

type t

(** [create ~n budgets] — [n] is the universe size (per-replica and
    per-link state is preallocated); [ring_capacity] bounds the flight
    recorder (default 8192 events — sized to keep the ring L2-resident;
    larger rings trade throughput for history). *)
val create : ?ring_capacity:int -> n:int -> budgets -> t

(** The per-event consumer, exposed for direct driving in tests;
    normally registered via {!attach}. *)
val subscriber : t -> Event.t -> unit

(** [attach t obs] adds {!subscriber} to [obs] as a sink. *)
val attach : t -> Obs.t -> unit

(** End-of-run sweep at the final simulation time: flags replicas still
    unhealed past the heal budget and runs the last latency-quantile
    check. Call once, after the run completes. *)
val finalize : t -> end_time:int -> unit

val alarm_count : t -> int

(** Flight-recorder contents, oldest first. *)
val ring_events : t -> Event.t list

val ring_seen : t -> int

(** [set_on_alarm t f] runs [f] synchronously on every alarm — the hook
    the CLI uses to write a flight-recorder snapshot on first fire.
    [f] must not emit into the hub. *)
val set_on_alarm : t -> (t -> alarm -> unit) -> unit

(** [set_interval t ~every f] fires [f] when event time first crosses
    each multiple of [every] ticks — drives the live dashboard and
    periodic OpenMetrics export. Raises [Invalid_argument] when
    [every < 1]. *)
val set_interval : t -> every:int -> (t -> time:int -> unit) -> unit

(** [firing] counts every alarm the monitor raised; the per-monitor
    counts sum to {!alarm_count}. *)
type status = { name : string; armed : bool; value : string; firing : int }

val statuses : t -> status list
val pp_alarm : Format.formatter -> alarm -> unit

(** One dashboard frame. Stateful: the instantaneous-throughput window
    resets on each call, so successive frames report ops committed
    since the previous frame. *)
val dashboard_string : t -> string

(** One machine-readable dashboard frame: the same quantities as
    {!dashboard_string}, including its stateful instantaneous-throughput
    window (each frame reports ops committed since the previous frame)
    — what [ftss watch --json] emits, one object per frame. *)
val dashboard_json : t -> Ftss_obs.Json.t

(** [write_openmetrics t path] writes the OpenMetrics text exposition
    of every tracked quantity, terminated by [# EOF]: event counters,
    the measured stabilization time, the worst heal, the commit-latency
    summary and the per-monitor alarm counts. *)
val write_openmetrics : t -> string -> unit
