(** The metrics registry: named counters, gauges and histograms,
    exportable as one JSON document or a text summary.

    Instruments are created on first use ([counter]/[gauge]/[lhist]
    are get-or-create) and updates are O(1) field mutations, so recording
    is cheap enough for per-message call sites. The registry itself is not
    synchronized: concurrent producers must serialize through {!Obs}
    (which holds a mutex around {!record_event}); single-threaded direct
    use (bench harness, CLI) needs no locking.

    {!record_event} derives the standard metrics of the event taxonomy —
    per-link delivered/dropped counters, suspicion churn, decision and
    crash counts, the stabilization-time histogram from window-close
    events, checker case/violation/dedup counters — so any component that
    emits events gets its metrics for free; components may additionally
    record bespoke instruments (explorer throughput, per-domain
    utilization) directly. *)

type t

val create : unit -> t

type counter

val counter : t -> string -> counter
val inc : counter -> unit
val add : counter -> int -> unit

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit

(** Log-bucketed (HDR-style) histogram: geometric buckets at ratio
    2{^1/8}, preallocated, O(1) observe, O(buckets) percentile. Every
    sample lands in a bucket, so percentiles stay unbiased on unbounded
    streams; the price is a bounded relative error per estimate
    ({!lhist_error}, ~4.4%). Count/sum/min/max stay exact. *)
type lhist

(** Registry-attached get-or-create; exported under "histograms" in
    {!to_json}. *)
val lhist : t -> string -> lhist

(** A standalone instance, for single-owner instruments (streaming
    monitors) that export through their own path. *)
val lhist_create : unit -> lhist

val lobserve : lhist -> float -> unit

(** [lobserve_n h v k] records [k] samples of value [v] at once: the
    histogram [k] calls of [lobserve h v] leave, whenever [v *. k] and
    the running sum stay exact (integer samples below 2{^53}). *)
val lobserve_n : lhist -> float -> int -> unit

(** [lhist_merge into from] folds [from]'s samples into [into] (counts,
    sum, extremes, and buckets add exactly — log bucketing makes merging
    lossless). [from] is left untouched. Sharded runs use this to combine
    per-shard latency histograms into one population. *)
val lhist_merge : lhist -> lhist -> unit

val lhist_count : lhist -> int
val lhist_sum : lhist -> float

(** Exact maximum; [nan] when empty. The exact minimum is exported by
    {!to_json}. *)
val lhist_max : lhist -> float

(** [lpercentile h p] with [p] in [0,100]: the geometric midpoint of the
    bucket holding the nearest-rank sample, clamped to the exact
    min/max; [nan] when empty. *)
val lpercentile : lhist -> float -> float

(** Bound on the relative error of {!lpercentile} (half a bucket): the
    tests' oracle for percentile estimates, with no production reader. *)
val lhist_error : float

(** Fold the standard derivations of one event into the registry. *)
val record_event : t -> Event.t -> unit

(** Snapshot:
    [{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,min,max,mean,p50,p95,p99,p999,kind}}}],
    names sorted. *)
val to_json : t -> Json.t
