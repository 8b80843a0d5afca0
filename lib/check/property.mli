(** The paper's theorems as checkable properties over enumerated cases.

    A property packages: build the fault schedule and corruption of a
    {!Schedule_enum.t} case, execute the protocol under it, fingerprint
    the resulting execution (so {!Explore} can deduplicate isomorphic
    runs), and — lazily, because deduplicated runs skip it — evaluate the
    theorem's predicate.

    Three properties are provided, one per machine-checkable theorem:

    - [theorem3]: the Figure 1 round-agreement protocol ftss-solves
      Assumption 1 with stabilization time 1 ({!Ftss_core.Solve.ftss_solves});
    - [theorem4]: the Figure 3 compilation of suspect-filtered omission
      consensus ftss-solves Σ⁺ within the [2·final_round] bound;
    - [theorem5]: the Figure 4 ◇W → ◇S transform converges (strong
      completeness + eventual weak accuracy) from corrupted detector
      state, on the asynchronous simulator under the case's crash
      schedule (the case must be crash-only; [restrict] arranges that).

    {b Injections} deliberately break a mechanism so the explorer provably
    finds a counterexample, which [ftss check] shrinks as a genome
    ([Ftss_fuzz.Fuzz.shrink_genome]):

    - ["frozen-exchange"] (theorem 3): processes ignore every delivery
      and just increment — round agreement cannot reconcile distinct
      corrupted round variables;
    - ["no-suspect-filter"] (theorem 4): the Figure 3 suspect filter is
      disabled, re-admitting §2.4's insidious out-of-date messages. *)

(** [detail ()] formats the verdict's one-line explanation on demand: a
    sweep reads it for its first counterexample only. The thunk holds the
    few numbers it prints, never the trace. *)
type verdict = { ok : bool; detail : unit -> string }

(** One executed case. [fingerprint] is a content digest of the recorded
    execution: equal fingerprints imply equal verdicts, so the verdict of
    a duplicate run may be reused without forcing [verdict]. [states] is
    the number of process-round states the run simulated (the unit of the
    explorer's throughput report). [signature] is the run's per-round
    behavioural signature ({!Ftss_sync.Trace.round_signature} under a
    theorem-specific observable projection; a coarse convergence profile
    for the asynchronous theorem 5) — the fuzzer's coverage signal, lazy
    because the explorer never forces it. *)
type run = {
  fingerprint : int;
  states : int;
  signature : int array Lazy.t;
  verdict : verdict Lazy.t;
}

(** Hash tables keyed by fingerprint. The explorer and the fuzzer keep
    one per domain mapping a fingerprint to its verdict's [ok]: by the
    contract above a hit gives the bit [r.verdict] would have produced. *)
module Fingerprint_table : Hashtbl.S with type key = int

(** The adversary interface the theorem runners consume — what any case,
    catalogued or fuzzed, compiles down to: a fault schedule and one
    per-pid view of the corruption, [adv_corrupt p] being [p]'s
    corrupted value or [None] for a clean [p]. Each theorem runs its
    substrate with one initial-state [corrupt_at] entry per pid that has
    a value, in pid order, and none for a clean pid. Theorems 3 and 4
    rewrite the pid's round variable to its value. Theorem 5 draws its
    detector state with {!Ftss_async.Esfd.Layer.corrupt}
    [~num_bound:(v + 1)], every pid from one generator of a fixed seed.
    Theorem 5 reads only the schedule's crashes and rejects a schedule
    that omits a message in any of [adv_rounds]. *)
type adversary = {
  adv_n : int;
  adv_rounds : int;
  adv_f : int;
  adv_faults : Ftss_sync.Faults.t;
  adv_corrupt : Ftss_util.Pid.t -> int option;
}

type t = {
  name : string;
  inject : string;  (** active injection, ["none"] when checking the paper *)
  restrict : Schedule_enum.params -> Schedule_enum.params;
      (** narrows the enumeration to the schedules the property can
          interpret (e.g. crash-only for the asynchronous theorem 5) *)
  run_adv : ?obs:Ftss_obs.Obs.t -> adversary -> run;
      (** the evaluator proper; the fuzzer's entry point. With [?obs]
          the theorem's substrate run is traced and the stable windows of
          the execution are emitted — the provenance path for explaining
          a counterexample *)
  run : ?obs:Ftss_obs.Obs.t -> Schedule_enum.t -> run;
      (** [run_adv] on the case's compiled adversary *)
  run_batch : Schedule_enum.t array -> int array -> (int -> run -> unit) -> int;
      (** [run_batch cases order k] evaluates [cases.(i)] for each [i] of
          [order], in that order, and calls [k i r] with the [r] that
          [run cases.(i)] returns. It returns the process-round states it
          actually computed. The synchronous theorems walk one runner
          cursor: each case resumes from the state after the last round
          it shares with the previous case ({!Schedule_enum.shared_prefix}),
          so an [order] from {!Schedule_enum.prefix_order} simulates each
          distinct prefix about once. Theorem 5 has no rounds to share and
          runs case by case. *)
  fingerprint_hex : int -> string;
      (** the printed form of this property's fingerprints: 16 hex
          digits for a trace hash, two 8-digit halves ["%08x-%08x"] for
          theorem 5's packed pair. What the fuzz corpus names its files
          by and the CLI prints *)
}

(** [theorem3 ~inject:`Frozen_exchange ()] is the injected variant. *)
val theorem3 : ?inject:[ `None | `Frozen_exchange ] -> unit -> t

(** [theorem4 ~suspect_filter:false ()] is the injected variant. *)
val theorem4 : ?suspect_filter:bool -> unit -> t

(** [find ~name ~inject] resolves a CLI / replay-file selector, e.g.
    [find ~name:"theorem3" ~inject:"frozen-exchange"]. *)
val find : name:string -> inject:string -> (t, string) result
