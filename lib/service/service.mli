(** The service-tower driver: {!Tob} replicas plus the
    {!Ftss_async.Esfd.Layer} ◇S detector over the {!Ftss_async.Ewfd}
    oracle, wired into the {!Ftss_async.Sim} engine, driven by a precomputed {!Workload}, hit by
    a configurable fault mix (crashes, omission windows, mid-run
    corruption storms), and measured end to end. *)

open Ftss_util

type faults = {
  storms : (int * int) list;
      (** corruption storms: at each [(time, victims)], that many
          randomly chosen replicas have their whole protocol state
          (log, KV, engine, detector) scrambled *)
  omission : (int * int * float) list;
      (** message-omission windows [(t0, t1, p)]: every non-self message
          in the window is dropped with probability [p], hash-determined *)
  crashes : (Pid.t * int) list;
}

val no_faults : faults

type params = {
  n : int;
  seed : int;
  style : Tob.style;
  batch_max : int;
  gst : int;
  tick_interval : int;
  horizon : int;  (** 0 = workload window + drain margin *)
  faults : faults;
}

val default_params : n:int -> seed:int -> params

type percentiles = { p50 : float; p90 : float; p99 : float; p999 : float; max : float }

type report = {
  n : int;
  style : Tob.style;
  submitted : int;
  committed_slots : int;  (** min over live replicas *)
  committed_ops : int;  (** reference replica, duplicates included *)
  unique_ops : int;  (** distinct op ids in the reference log *)
  converged : bool;
      (** live replicas agree on log length, content-recomputed log
          digest, and table-recomputed KV digest *)
  slots_checked : int;
  slots_agreeing : int;
      (** slots whose last-apply digest agrees across live replicas *)
  log_digest : int;
  kv_digest : int;
  end_time : int;
  wall_seconds : float;
  latency : percentiles option;
      (** arrival to first application at the origin replica, in ticks *)
  measured_ops : int;
  throughput : float;  (** unique committed ops per wall-clock second *)
  recoveries : int;
  storm_recovery : (int * int option * int option) list;
      (** per storm time: ticks until every live replica applies again,
          and ticks until the last repair episode in the storm's window *)
  delivered : int;
  dropped : int;
}

(** Digest of the deterministic portion of a report (wall-clock excluded)
    — pinned by the golden determinism test. *)
val report_digest : report -> int

(** [run ?obs ?profile ~wl params] executes one full workload through
    the tower and measures it. With [obs], every layer (engine,
    detector, service) emits its event stream. With [profile], the
    engine's [sim_*] phases and every replica's [svc_*] phases are
    attributed to the given span-profiler lane (replica spans nest
    inside the engine's handler frames, so self-times stay disjoint);
    unset, the instrumentation is one option test per site. *)
val run :
  ?obs:Ftss_obs.Obs.t ->
  ?profile:Ftss_profile.Profile.lane ->
  wl:Workload.t ->
  params ->
  report

(** [run_sharded ?obs ?domains ~shards ~spec params] partitions the
    workload spec into [shards] independent replica towers (ops and
    sessions split evenly, per-shard generator and simulation seeds mixed
    from the base seeds) and executes them on [domains] domains
    ({!Ftss_profile.Pool.run}; [domains] defaults to 1 and is resolved by
    {!Ftss_profile.Pool.domains}). The partition and every shard's
    simulation depend only on [(spec, params, shards)] — [domains] is
    pure executor parallelism — so the merged report's
    {!report_digest} is bit-identical for any domain count.

    The merged report sums counters across shards, requires [converged]
    on every shard, chains log/KV digests in shard order, takes the
    latest [end_time], merges latency histograms losslessly before
    computing percentiles, and reports the worst shard per storm time.
    [wall_seconds] and [throughput] measure the whole parallel section
    with a real-time clock, so domain scaling is visible.

    With [obs], per-shard summary gauges ([shard.<i>.unique_ops],
    [shard.<i>.committed_slots], [shard.<i>.end_time],
    [shard.<i>.converged], [shard.<i>.wall_seconds]) plus
    [service.shards] / [service.domains] are recorded after the merge;
    shard-internal event streams are not emitted (the pipeline is not
    domain-safe).

    With [profile], each shard's tower records onto its own lane
    ([svc.shard<i>], domain-safe because exactly one domain executes a
    shard), the executor's chunk lifecycle lands on the [shards.d<i>]
    lanes via {!Ftss_profile.Pool.run}, and the post-join report
    merge is spanned as [chunk_merge] on [svc.main]. *)
val run_sharded :
  ?obs:Ftss_obs.Obs.t ->
  ?profile:Ftss_profile.Profile.t ->
  ?domains:int ->
  shards:int ->
  spec:Workload.spec ->
  params ->
  report

val pp_report : Format.formatter -> report -> unit
