(** The fuzzer's genome: an unstructured general-omission adversary.

    {!Ftss_check.Schedule_enum} walks a finite behaviour catalogue —
    per-process crash/mute/deaf/isolate/point-drop behaviours crossed
    with five canonical corruption classes. The theorems quantify over
    much more: {e arbitrary} per-round, per-link drop matrices and
    {e arbitrary} corrupted states. A genome represents exactly that
    richer space, as plain data:

    - a declared faulty set of at most [f] processes (a pid may be
      declared without any charged misbehaviour — a pure [Blame]);
    - at most one crash round per faulty process;
    - an arbitrary set of point drops [(round, src, dst)], each with at
      least one declared-faulty endpoint (the paper's general-omission
      blame obligation);
    - an arbitrary per-pid raw corruption of the initial round variable.

    Every catalogue case injects into this space ({!of_schedule}) by
    compiling its interval behaviours to the equivalent point-drop
    matrix — the compiled {!Ftss_sync.Faults.t} answers every drop query
    identically and declares the identical faulty set, so the injected
    genome's execution has the {e same} {!Ftss_sync.Trace.hash} as the
    catalogue case's (the seed-corpus round-trip the tests pin).

    Mutation ({!mutate}, {!splice}) is seeded and validity-preserving:
    every mutant of a valid genome is valid — rounds within the horizon,
    pids within the universe, the fault budget respected. *)

open Ftss_util

type params = {
  n : int;  (** system size, [2 <= n <= Pidset.max_pid + 1] *)
  rounds : int;  (** schedule horizon, [>= 1] *)
  f : int;  (** fault budget, [0 <= f < n] *)
  allow_drops : bool;
      (** whether genomes may schedule omissions at all (theorem 5's
          crash-only restriction sets this false) *)
}

type t = {
  params : params;
  faulty : Pidset.t;  (** declared faulty set, [|faulty| <= f] *)
  crashes : (Pid.t * int) list;
      (** [(pid, round)], pid-ascending, at most one per pid, every pid
          declared faulty *)
  drops : (int * Pid.t * Pid.t) list;
      (** point omissions, sorted ascending, no duplicates, [src <> dst],
          at least one endpoint declared faulty; empty unless
          [allow_drops] *)
  corrupt : (Pid.t * int) list;
      (** per-pid raw initial-state values, pid-ascending, values in
          [0, 1_000_000), strictly above {!Ftss_check.Schedule_enum}'s
          [Max] representative *)
}

(** The genome parameter space a catalogue enumeration lives in:
    [allow_drops] iff the catalogue included intervals or point drops. *)
val params_of_schedule : Ftss_check.Schedule_enum.params -> params

(** [catalogue property params] is the catalogue [property] enumerates
    over [params]: its [restrict] applied to their catalogue view (for
    theorem 5, crash schedules only). Raises [Invalid_argument] on
    params {!Ftss_check.Schedule_enum.validate} rejects. *)
val catalogue : Ftss_check.Property.t -> params -> Ftss_check.Schedule_enum.params

(** Inject a catalogue case: intervals become their point-drop matrices,
    the corruption class its per-pid value table. The injected genome
    compiles ({!to_adversary}) to a fault schedule with the identical
    drop semantics and declared faulty set and to the identical per-pid
    corruption, hence the identical execution fingerprint on every
    theorem. *)
val of_schedule : Ftss_check.Schedule_enum.t -> t

(** Compile to the evaluator interface shared with the exhaustive
    checker: [adv_corrupt p] is [p]'s entry in [corrupt]. *)
val to_adversary : t -> Ftss_check.Property.adversary

(** The shrinking measure: [|faulty|] plus each crash's remaining rounds
    [rounds - r + 1] plus [|drops|] plus [|corrupt|]. Every
    {!reductions} candidate is strictly smaller. *)
val size : t -> int

val equal : t -> t -> bool

(** One seeded mutation step: flip (add/remove) a drop, widen or shift a
    drop to an adjacent round, set/shift/clear a crash point, perturb or
    clear a corruption value, or toggle a declared-faulty pid — chosen
    uniformly among the operators applicable to [t]. Deterministic in
    the generator state; the result is valid and shares [t.params]. *)
val mutate : Rng.t -> t -> t

(** Seeded crossover of two genomes over the same [params] (raises
    [Invalid_argument] otherwise): each crash, drop and corruption entry
    is inherited from one parent or the other, and the declared set is
    repaired back to the fault budget by discharging the largest pids.
    Deterministic in the generator state; the result is valid. *)
val splice : Rng.t -> t -> t -> t

(** The strictly smaller genomes tried from [t], in the order tried:
    coarse group moves first — all drops at once, all corruptions at
    once, a faulty pid with everything touching it, whole
    [(endpoint, round)] drop rows (the analogues of a catalogue case's
    behaviour removals, corruption downgrades and interval weakenings)
    — then single drop removals, crash removals, crash postponements,
    corruption removals, and removals of uncharged faulty pids. The
    greedy descent of {!Fuzz.shrink_genome} over these terminates
    because {!size} strictly decreases along every candidate. *)
val reductions : t -> t list

val pp : Format.formatter -> t -> unit

(** {2 Persistence} — the corpus file format: one self-contained JSON
    document per genome (params embedded), written through
    {!Ftss_obs.Json}. Example:

    {v
{"format":"ftss-genome","version":2,
 "params":{"n":3,"rounds":4,"f":1,"allow_drops":true},
 "faulty":[1],"crashes":[[1,4]],"drops":[[2,0,1],[3,1,0]],
 "corrupt":[[0,42],[2,999983]]}
    v}

    [crashes] are [[pid, round]], [drops] [[round, src, dst]] and
    [corrupt] [[pid, value]]. *)

val to_json : t -> Ftss_obs.Json.t

(** Strict inverse of {!to_json}: a wrong [format] or [version], a
    missing or mistyped field, and a genome that breaks a structural
    invariant against its own [params] are [Error _], never guessed at.
    Every constructor and mutator in this module returns only
    well-formed genomes. *)
val of_json : Ftss_obs.Json.t -> (t, string) result
