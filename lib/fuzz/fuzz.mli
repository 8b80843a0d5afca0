(** The coverage-guided fuzzing loop.

    [run] drives a {!Ftss_check.Property.t} through its genome evaluator
    ([run_adv]) in two phases:

    + {b seeding} — every catalogue case of the property's restricted
      enumeration is injected into the genome space
      ({!Mutate.of_schedule}) and executed, along with any persisted
      corpus entries, so the fuzzer starts from everything the
      exhaustive checker would try: an injected case runs the
      catalogue's own execution on every theorem, so the seed phase
      alone finds {e exactly} the exhaustive violation set — the
      differential oracle;
    + {b mutation} — batches of mutants of corpus parents (1–3 stacked
      {!Mutate.mutate} steps, occasionally a {!Mutate.splice}) are
      generated single-threaded from the seeded generator and evaluated
      until the budget runs out. Inputs that grow coverage (new
      execution fingerprint or new per-round signature word) enter the
      corpus — capped at 4096 entries — and become parents.

    Batches evaluate in parallel over OCaml 5 domains through
    {!Ftss_profile.Pool.run}, but generation and
    the coverage/violation merge are single-threaded and in batch order,
    so the outcome — corpus, coverage curve, violations — is
    deterministic and independent of the domain count; only wall-clock
    figures vary.

    Every distinct violation is auto-shrunk to a genome local minimum
    ({!shrink_genome}), the shrinker [ftss check] uses too. With
    an observability hub attached, each coverage growth emits a
    [Coverage] event (the event stream is the coverage-growth curve) and
    the end-of-run throughput lands in gauges. *)

type budget =
  | Cases of int  (** total executions, seed phase included *)
  | Seconds of float  (** wall-clock; the seed phase always completes *)

type config = {
  seed : int;
  budget : budget;
  domains : int;  (** resolved by {!Ftss_profile.Pool.domains} *)
  params : Mutate.params;  (** the adversary space (pre-[restrict]) *)
  corpus_dir : string option;
      (** load persisted entries before seeding, save the final corpus
          after the run *)
}

type violation = {
  v_genome : Mutate.t;  (** as discovered *)
  v_shrunk : Mutate.t;  (** local minimum under {!Mutate.reductions} *)
  v_fingerprint : string;  (** printed by the property's [fingerprint_hex] *)
  v_detail : string;
  v_seed : bool;  (** discovered in the seeding phase *)
}

type stats = {
  execs : int;
  seed_execs : int;
  corpus_size : int;
  coverage_points : int;
  violations : violation list;
      (** one per distinct fingerprint, discovery order *)
  elapsed : float;  (** fuzz-loop wall clock, shrinking excluded *)
  execs_per_sec : float;
  domains : int;
  coverage_curve : (int * int) list;
      (** (execs, coverage points) at each growth, chronological *)
  corpus : Mutate.t list;  (** final corpus entries, admission order *)
}

(** [run config property] fuzzes until the budget is spent. [Error _]
    reports an unloadable corpus directory; no exception escapes for
    malformed persisted files.

    With [profile], the campaign records onto a single [fuzz] lane:
    [fuzz_seed] spans the whole seed phase (catalogue + persisted-corpus
    evaluation), [fuzz_mutate] each batch's genome generation, and
    [fuzz_verify] each mutation batch's evaluation plus the final shrink
    pass. Unset, the instrumentation is one option test per batch. *)
val run :
  ?obs:Ftss_obs.Obs.t ->
  ?profile:Ftss_profile.Profile.t ->
  config ->
  Ftss_check.Property.t ->
  (stats, string) result

(** Shrink one failing genome to a local minimum: a greedy descent that
    steps to the first of {!Mutate.reductions} still falsifying the
    property until none does. Deterministic, and it terminates because
    every reduction has a smaller {!Mutate.size}; requires the genome
    to falsify the property. *)
val shrink_genome : Ftss_check.Property.t -> Mutate.t -> Mutate.t

(** True iff the genome falsifies the property. *)
val genome_fails : Ftss_check.Property.t -> Mutate.t -> bool

(** The stats as one JSON object — what [ftss fuzz --json] prints and
    E12 records. The corpus itself is not embedded, only its size. *)
val to_json : stats -> Ftss_obs.Json.t

val pp_stats : Format.formatter -> stats -> unit
