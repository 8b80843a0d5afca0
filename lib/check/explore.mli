(** Parallel exhaustive exploration of an enumerated adversary space.

    The executed cases are first sorted by {!Schedule_enum.prefix_order},
    so cases that agree on their first rounds are adjacent.
    {!Ftss_profile.Pool.run} then hands each domain chunks of that order
    (their size depends on the sweep alone, never on the domain count).
    The domain evaluates a chunk with one {!Property.run_batch} call: each case resumes from the runner
    state after the last round it shares with the case before it, so a
    shared prefix is simulated once per chunk. For each case the domain
    consults its {e own} table of verdict bits keyed by fingerprint
    ({!Verdicts}) — no lock anywhere on the per-case
    path — and either reuses the bit of an isomorphic earlier run (a
    {e dedup hit}) or evaluates the property and stores its [ok].
    Verdicts are pure functions of the fingerprinted execution, so
    per-domain caching can only cost recomputation, never change a
    result. Each case leaves its fingerprint in an int array and its
    verdict in a byte; at join the distinct count is the size of the
    union of the tables' keys, so the merged outcome — verdicts,
    violation indices, distinct-trace, dedup and stepped counts — is
    deterministic and independent of how the domains interleaved; only
    the wall-clock numbers vary.

    {b What a sweep retains.} A finished sweep keeps one int per case
    (the returned fingerprint array) and the violation list; the
    per-domain tables go once the distinct count is read. A
    verdict's explanation is not kept: a caller that prints one re-runs
    that case through the property's [run] and formats the verdict's
    [detail]. *)

(** What one worker domain did: case and state counts plus the seconds it
    spent executing cases (its busy time; [d_busy /. elapsed] is its
    utilization). *)
type domain_stat = { d_cases : int; d_states : int; d_busy : float }

type stats = {
  cases : int;  (** cases covered (the caller's whole array) *)
  orbits : int;
      (** runs actually executed: one per canonical form under
          [~canonical:true] — the orbit count while every support has at
          most 8 pids, an upper bound on it above — and every case
          otherwise (then [orbits = cases]) *)
  distinct : int;  (** distinct execution fingerprints among executed runs *)
  dedup_hits : int;  (** [orbits - distinct] *)
  violations : int list;  (** failing case indices, ascending *)
  states : int;
      (** process-round states of the executed runs: what the sweep
          covered, [n * rounds] per run *)
  stepped : int;
      (** process-round states actually computed: [n] per round stepped
          (theorem 5, which has no rounds to share, computes all of its
          [states]). Below [states] by what shared prefixes saved;
          deterministic, since chunks are fixed positions of a fixed
          order *)
  elapsed : float;  (** wall-clock seconds *)
  domains : int;
  per_domain : domain_stat array;  (** index 0 is the calling domain *)
}

(** [run ?obs ~domains ?canonical property cases] explores every case.
    [domains] defaults to 1 and is resolved by {!Ftss_profile.Pool.domains}
    ([<= 0] means every available core; clamped to [1..64]). The returned
    second component holds each case's execution fingerprint, indexed
    like [cases] (the property's [fingerprint_hex] prints one); a case
    passed iff its index is not in [stats.violations].

    With [canonical = true] (default false), cases are first grouped by
    {!Schedule_enum.canonical} — their orbit under pid relabelling — and
    only one representative per group is executed; its verdict and
    fingerprint are scattered to every member, so the fingerprint array
    and the violation indices remain aligned with [cases] and, for
    pid-symmetric properties, identical to an uncanonical run's. A group
    never spans two orbits, and it is a whole orbit while the case's
    support has at most 8 pids; above that an orbit may split into
    several groups, each executed. Reusing the {e verdict} across
    a group is what assumes pid symmetry of the property, which is why
    the mode is opt-in (and pinned against the full enumeration by the
    golden equivalence suite). [stats.orbits] reports the collapse;
    [cases /. orbits] is the symmetry-reduction factor.

    With [profile], each domain records its work-queue lifecycle on its
    own [explore.d<i>] lane ({!Ftss_profile.Pool.run}), and the
    post-join distinct count and verdict scatter are spanned as
    [chunk_merge] on [explore.main]. Unset, the instrumentation is one
    option test per chunk.

    When [obs] is given, every executed case emits a [Case_start] and a
    [Case_verdict] event, in processing order (the [dedup] flag marks
    hits in the executing domain's own verdict cache — an
    underapproximation of the deterministic [dedup_hits] figure; under
    [canonical] the event indices refer to the representative array),
    the cases remaining at each case's position in the sorted order land
    in the ["explore_queue_depth"] histogram, and the merged throughput
    and per-domain utilization are recorded as gauges. All hub access
    serializes on the hub's own mutex. Per-domain busy time is clocked
    once per claimed chunk. *)
val run :
  ?obs:Ftss_obs.Obs.t ->
  ?profile:Ftss_profile.Profile.t ->
  ?domains:int ->
  ?canonical:bool ->
  Property.t ->
  Schedule_enum.t array ->
  stats * int array

val runs_per_sec : stats -> float
val states_per_sec : stats -> float

(** Dedup hits as a fraction of executed runs, in [0, 1]. *)
val dedup_rate : stats -> float

(** [cases /. orbits] — how many enumerated cases each executed run
    covered; 1.0 without [~canonical:true]. *)
val symmetry_reduction : stats -> float

(** The stats as one JSON object (throughput and per-domain utilization
    included) — what [ftss check --json] prints. *)
val to_json : stats -> Ftss_obs.Json.t

val pp_stats : Format.formatter -> stats -> unit
