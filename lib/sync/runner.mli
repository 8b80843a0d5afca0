(** Lockstep executor for the perfectly synchronous model.

    Executes a {!Protocol.t} for a fixed number of rounds under a
    {!Faults.t} schedule, optionally commencing from a systemically-corrupted
    state, and records the full history as a {!Trace.t}.

    Systemic failures: the paper models a systemic failure as execution
    commencing in an arbitrary global state (§2.1). The corruption
    schedule [corrupt_at] holds per-pid entries [(round, pid, f)], each
    rewriting [pid]'s state [s] to [f s]. Round 0 is the initial state:
    its entries rewrite the protocol-specified states entering round 1.
    An entry for a later round [r] rewrites the state entering round [r]
    (after the round's crashes take effect), which models a
    mid-execution systemic failure — the suffix from such a round is
    itself a history commencing in an arbitrary state. Entries for one
    round apply in list order; an entry for a crashed process is
    skipped. *)

open Ftss_util

val run :
  ?obs:Ftss_obs.Obs.t ->
  ?corrupt_at:(int * Pid.t * ('s -> 's)) list ->
  faults:Faults.t ->
  rounds:int ->
  ('s, 'm) Protocol.t ->
  ('s, 'm) Trace.t
(** [run ?obs ?corrupt_at ~faults ~rounds protocol] executes
    [rounds] rounds: {!start}, then [rounds] calls to {!step}, then
    {!finish}. Semantics, per round [r] (1-based):
    - processes whose crash round is [<= r] take no action;
    - every live process broadcasts [protocol.broadcast];
    - the message from [src] to [dst] is delivered unless the schedule
      drops it; self-messages are always delivered (paper footnote 1);
    - every live process applies [protocol.step] to its deliveries,
      ordered by sender pid.

    When [obs] is given, the runner emits the execution's event stream:
    one [Corrupt] per applied [corrupt_at] entry, timestamped with its
    round (0 for the initial state), then per round [Round_begin],
    [Crash] on the round a crash takes effect, one broadcast [Send] per
    live process, [Deliver]/[Drop] per directed link (drops carry
    {!Faults.blame}), and [Round_end]. With [obs] absent the
    instrumentation allocates nothing.

    Raises [Invalid_argument] if [rounds < 1], or on a [corrupt_at]
    entry with a negative round or a pid outside the system. *)

(** {2 Resumable execution}

    A cursor is the state of an execution after some number of rounds:
    the process states entering the next round, the crash table, the
    omissions and round records so far (with each round's knowledge
    sets) and the content hash's fold of the generator vectors. Cursors are
    persistent — {!step} returns a new cursor and leaves its argument
    valid — and the records and states they hold are never written, so
    executions that agree on their first [k] rounds can share the cursor
    after round [k] and simulate those rounds, propagate their knowledge
    sets and hash their generators once. *)

type ('s, 'm) cursor

(** [start ?obs ?corrupt_at ~n protocol] is the cursor before round 1:
    each process's [protocol.init] state, rewritten by the round-0
    entries of [corrupt_at]. *)
val start :
  ?obs:Ftss_obs.Obs.t ->
  ?corrupt_at:(int * Pid.t * ('s -> 's)) list ->
  n:int ->
  ('s, 'm) Protocol.t ->
  ('s, 'm) cursor

(** [step ?obs ?corrupt_at ~faults c] executes the round after [c]
    under [faults], with the semantics and events of {!run}, applying
    the entries of [corrupt_at] for that round. The round's outcome
    depends on [faults] only through the crashes taking effect in it and
    the links it drops (plus the blame of a traced drop). *)
val step :
  ?obs:Ftss_obs.Obs.t ->
  ?corrupt_at:(int * Pid.t * ('s -> 's)) list ->
  faults:Faults.t ->
  ('s, 'm) cursor ->
  ('s, 'm) cursor

(** [finish ~faults c] is the trace of the rounds executed so far,
    declaring [Faults.faulty faults]. Its content hash seals the fold of
    the generator vectors the cursor carries — round 1's entering vector
    and every vector entering a round that [corrupt_at] names in {!step} (see
    {!Trace.fold_generator}) — so cases that share a cursor fold those
    once. Raises [Invalid_argument] if [c] has executed no round. *)
val finish : faults:Faults.t -> ('s, 'm) cursor -> ('s, 'm) Trace.t
