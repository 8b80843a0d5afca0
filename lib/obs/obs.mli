(** The observability hub handed to instrumented components.

    An [Obs.t] bundles the attached sinks with a metrics registry and a
    mutex: {!emit} folds the event into the registry and fans it out to
    every sink under the lock, so producers on multiple domains (the
    parallel explorer) may share one hub safely.

    Every instrumented entry point takes [?obs:Obs.t] defaulting to
    [None], and call sites guard event {e construction} (not just
    emission) on [Option.is_some obs] — with no hub attached the
    instrumented hot paths allocate nothing and add only a branch. *)

open Ftss_util

type t

(** [create ()] with no sinks still collects metrics — attach it to a run
    and export {!metrics} afterwards. [~record:false] skips folding
    events into the metrics registry — the monitor-only configuration,
    where sinks maintain their own state and the per-event registry
    hashtable work would be waste. [~threadsafe:false] drops the
    per-event mutex — the pair of lock stubs is the largest fixed cost
    of an emit — and is safe exactly when a single domain emits (the
    discrete-event simulator, the service tower); multi-domain producers
    (the parallel explorer) must keep the default. *)
val create : ?record:bool -> ?threadsafe:bool -> unit -> t

(** [add_sink t s] attaches a consumer. {!emit} folds an event into the
    registry, then hands it to every sink in the order they were added.
    Sinks run under the hub lock, so they must not call back into the
    hub; a sink on the armed hot path (the streaming monitor plane,
    {!Ftss_monitor.Monitor.attach}) must be O(1) per event. *)
val add_sink : t -> Sink.t -> unit

val emit : t -> Event.t -> unit
val metrics : t -> Metrics.t

(** [with_metrics t f] runs [f] on the registry under the hub's lock —
    for bespoke instruments recorded from concurrent producers. *)
val with_metrics : t -> (Metrics.t -> unit) -> unit

(** Closes every sink (flushing files). The hub stays usable; events
    emitted afterwards reach sinks whose [close] was idempotent. *)
val close : t -> unit

(** [suspect_diff t ~time ~observer ~before ~after] emits one
    [Suspect_add] per subject in [after \ before] and one
    [Suspect_remove] per subject in [before \ after]. *)
val suspect_diff :
  t -> time:int -> observer:Pid.t -> before:Pidset.t -> after:Pidset.t -> unit

(** [emit_windows t windows] emits a [Window_open]/[Window_close] pair
    per [((x, y), measured)] entry — the shape returned by
    [Solve.measured_per_window]. *)
val emit_windows : t -> ((int * int) * int) list -> unit
