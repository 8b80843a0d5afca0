(** A span-based self-profiler: per-phase time and allocation attribution
    across the explorer, the simulator, the service tower and the fuzzer.

    The design follows the flight recorder's unboxed discipline: spans are
    begin/end monotonic-clock nanosecond ticks packed into preallocated
    flat int arrays, recorded on a per-{!lane} basis (one lane per domain
    or shard, single-writer, so the hot path takes no lock). The phase
    vocabulary is a closed registry ({!Phase}) — a fixed id per
    instrumented code path — so summaries, folded stacks and bench gauges
    have stable names across runs.

    Instrumented entry points take [?profile:Profile.lane] defaulting to
    [None], with the same zero-cost-when-unset contract as [?obs]: no
    clock reads, no allocation, nothing but a hoisted option test on the
    bare path. A lane whose profiler was created with [~enabled:false]
    additionally reduces every operation to one load-and-branch, which is
    what the E17 "profiler off" overhead gate measures.

    Two recording strategies, fixed per phase in the registry:

    - {e buffered} phases (explorer chunks, fuzz batches, audits,
      catch-up) record one span per {!enter}/{!leave} pair, with minor
      allocation words from [Gc.minor_words] and major words from
      [Gc.quick_stat] (quick_stat costs ~1 µs, affordable only on
      millisecond-scale spans);
    - {e coalesced} phases (the per-event simulator and tower paths)
      accumulate exact per-phase self-time/call/alloc counters and emit
      one aggregated timeline slice per phase per ~10 ms window, keeping
      the armed per-event cost to a few clock reads.

    Self-time bookkeeping is nesting-aware: a frame's children are
    subtracted, so per-lane self-times always sum to at most the lane's
    wall time ({!check} verifies this invariant; E17 and the unit tests
    gate on it). Spans self-include the profiler's own clock reads
    (~30 ns each, allocation-free via a [clock_gettime] stub).

    Export: {!chrome_json} (Chrome-trace/Perfetto, one process per track
    group, one thread per lane), {!folded} (flamegraph folded stacks),
    {!pp_summary} (self-time table) and {!gauges} (bench-envelope gauges,
    [profile_self_ms.<phase>] and friends, tracked informationally by
    bench-diff). Export flushes open windows and must only run
    after the instrumented work has quiesced (lanes are single-writer). *)

type t
(** A profiler: a registry of lanes plus the enabled flag. Lane creation
    serializes on an internal mutex; recording into distinct lanes from
    distinct domains is safe. *)

type lane
(** A single-writer span stream — one per domain, shard or subsystem. *)

type phase = private int
(** An id from the closed registry below. *)

module Phase : sig
  (** Explorer / sharded-runner chunk lifecycle. *)

  val chunk_claim : phase
  (** Claiming a chunk off the shared cursor ([Atomic.fetch_and_add]). *)

  val chunk_execute : phase
  (** Executing the claimed chunk's cases or shard thunks. *)

  val chunk_merge : phase
  (** Merging per-domain or per-shard results after the join. *)

  (** Simulator event loop. *)

  val sim_pop : phase  (** Popping the next event off the calendar queue. *)

  val sim_dispatch : phase  (** Tick and scramble handlers. *)

  val sim_deliver : phase  (** Message-delivery handlers. *)

  (** Service tower (Tob). *)

  val svc_slot : phase
  (** Driving the current slot's consensus engine (receive/tick/decide). *)

  val svc_integrity : phase  (** Local recovery after an integrity-guard mismatch. *)

  val svc_audit : phase  (** The cyclic log/KV self-audit. *)

  val svc_catchup : phase  (** Pull-based catch-up and state transfer. *)

  val svc_gossip : phase  (** Tag heartbeat handling (checkpoint gossip). *)

  (** Fuzzer batches. *)

  val fuzz_seed : phase  (** Phase A: catalogue + corpus seed evaluation. *)

  val fuzz_mutate : phase  (** Generating a mutation batch. *)

  val fuzz_verify : phase  (** Evaluating a batch of genomes. *)

  val count : int
  val all : phase list
  val name : phase -> string
end

val create : ?enabled:bool -> ?max_spans_per_lane:int -> unit -> t
(** [create ()] makes an armed profiler. [~enabled:false] makes every
    lane operation a no-op. [max_spans_per_lane]
    (default 65536) bounds each lane's span buffer — beyond it spans are
    dropped (counted in the [profile_dropped_spans] gauge) while the
    exact per-phase accumulators keep counting. *)

val enabled : t -> bool

val lane : t -> string -> lane
(** [lane t name] gets or creates the lane [name] (serialized on the
    profiler mutex — create lanes at setup time, not on hot paths). Track
    grouping for the Chrome export uses the prefix before the first '.':
    lanes ["svc.shard0"] and ["svc.shard1"] share the ["svc"] process
    row. *)

val now_ns : unit -> int
(** Monotonic nanoseconds (allocation-free C stub). *)

val enter : lane -> phase -> unit
(** Open a frame. Frames nest (depth ≤ 64); a child's duration is
    subtracted from its parent's self-time. *)

val enter_at : lane -> phase -> at:int -> unit
(** [enter_at l p ~at] opens a frame whose begin tick is the
    already-read clock value [at] — lets adjacent spans chain off one
    clock read. *)

val leave : lane -> int
(** Close the innermost frame, record the span, and return the end tick
    (0 when disarmed) so the caller can chain it into a following
    {!lap}/{!enter_at} without re-reading the clock. *)

val lap : lane -> phase -> since:int -> int
(** [lap l p ~since] records a leaf span [(since, now)] against [p] and
    returns [now] — the chained one-clock-read-per-transition form used
    by the simulator loop. Disarmed lanes return [since] unchanged. *)

(** {1 Export} *)

type phase_total = {
  pt_phase : phase;
  pt_calls : int;
  pt_self_ns : int;
  pt_minor_words : float;  (** minor-heap words allocated, self *)
  pt_major_words : float;  (** major-heap words, buffered phases only *)
}

val totals : t -> phase_total list
(** Aggregated over all lanes, phases with at least one call, largest
    self-time first. Flushes open windows. *)

val lanes : t -> string list

val wall_ns : t -> int
(** Last activity minus first activity across all lanes. *)

val check : t -> (string * int * int) list
(** Per-lane invariant check: [(lane, sum_self_ns, lane_wall_ns)] for
    every lane whose phase self-times sum to {e more} than its wall time
    — always empty unless the bookkeeping is broken. *)

val chrome_json : t -> Ftss_obs.Json.t
(** The Chrome-trace/Perfetto JSON object ([traceEvents] with complete
    "X" events, µs timebase; process/thread metadata naming one process
    per track group and one thread per lane). Coalesced phases appear as
    aggregated window slices laid end to end inside their window. *)

val folded : t -> string
(** Folded stacks ("lane;parent;phase self_ns" per line) for
    flamegraph tools. *)

val gauges : t -> (string * float) list
(** Bench-envelope gauges: [profile_self_ms.<phase>] (exercised phases
    only), [profile_calls.<phase>], [profile_minor_words.<phase>], plus
    [profile_dropped_spans]. *)

val pp_summary : Format.formatter -> t -> unit
(** The self-time table: phase, calls, self time, share of profiled
    time, allocation. *)
