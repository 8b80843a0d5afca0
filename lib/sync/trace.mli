(** Recorded execution histories (the paper's H, §2.1).

    A trace is the sequence of round histories of one execution: for every
    round, each process's state at the start of the round, the message it
    broadcast, the messages actually delivered to it, and its state at the
    end of the round. All of the paper's definitions (consistency,
    coteries, the ftss-solves predicate) are evaluated against traces. *)

open Ftss_util

type ('s, 'm) round_record = {
  round : int;  (** actual (external-observer) round number, 1-based *)
  states_before : 's option array;
      (** state of each process at the start of the round; [None] once the
          process has crashed *)
  sent : 'm option array;  (** broadcast of each process, [None] if crashed *)
  delivered : 'm Protocol.delivery list array;
      (** messages delivered to each process, ordered by sender pid *)
  states_after : 's option array;
      (** state at the end of the round (after the transition) *)
  know : Pidset.t array;
      (** knowledge sets K_round(p): every process with an event
          happened-before p's state at the end of the round (paper §2.1;
          see {!knowledge}), in the execution the round was stepped in —
          a {!sub} window's records keep their source's sets *)
}

type ('s, 'm) t = {
  n : int;
  protocol_name : string;
  records : ('s, 'm) round_record array;  (** index [r-1] holds round [r] *)
  crashed_at : int option array;  (** pid -> crash round *)
  omissions : (int * Pid.t * Pid.t) list;
      (** observed dropped messages (round, src, dst), earliest first *)
  declared_faulty : Pidset.t;
      (** the schedule's declared faulty set F (paper's bound f applies to
          this set) *)
  hash : int;
      (** content hash of the execution, folded as the trace is built; see
          {!val:hash} *)
  windowed : bool;
      (** [true] for a {!sub} window, whose records' [know] are not its
          own: a window restarts at K_0(p) = \{p\}, and
          {!Ftss_history.Causality.analyze} recomputes them *)
}

(** Number of recorded rounds [|H|]. *)
val length : ('s, 'm) t -> int

(** [state_before t ~round p] is the paper's [s_p^round] (with the round
    variable included in ['s]); [None] if crashed. Raises
    [Invalid_argument] if [round] is outside [1..length t]. *)
val state_before : ('s, 'm) t -> round:int -> Pid.t -> 's option

(** [state_after t ~round p] is the state at the end of [round]. *)
val state_after : ('s, 'm) t -> round:int -> Pid.t -> 's option

(** [record t ~round] is the full round history of [round]. *)
val record : ('s, 'm) t -> round:int -> ('s, 'm) round_record

(** The declared correct set C(H, Π). *)
val correct : ('s, 'm) t -> Pidset.t

(** Processes observed to have crashed. *)
val crashed : ('s, 'm) t -> Pidset.t

(** [blames_declared t] audits the declared faulty set against the
    recorded failures: every crashed process must be declared faulty, and
    every omission must have at least one declared-faulty endpoint (which
    endpoint actually misbehaved — send or receive omission — is
    inherently unobservable from the history alone). True for every trace
    produced by {!Runner.run} under a well-formed schedule. *)
val blames_declared : ('s, 'm) t -> bool

(** [alive t ~round p] is true iff [p] has not crashed before or in
    [round]. *)
val alive : ('s, 'm) t -> round:int -> Pid.t -> bool

(** [sub t ~first ~last] is the sub-history of rounds [first..last]
    (both inclusive), renumbered from 1 — the paper's prefix/suffix
    construction. Its records keep the knowledge sets of [t]'s execution
    and the window is marked [windowed]; its own sets are computed only
    by a reader that needs them, so a window read only by a spec pays
    nothing for them. Raises
    [Invalid_argument] on an empty or out-of-range interval. *)
val sub : ('s, 'm) t -> first:int -> last:int -> ('s, 'm) t

(** [knowledge ~before delivered] is one round of the happened-before
    propagation: K_r(p) is K_{r-1}(p) ([before.(p)]) joined with
    [{src} ∪ K_{r-1}(src)] for every delivery [src] to [p]. Receivers
    handed one physically shared delivery list (every live receiver of
    a round without omissions, see {!Runner.step}) share one union of
    their senders' sets, so such a round costs one fold, not [n]. *)
val knowledge :
  before:Pidset.t array -> 'm Protocol.delivery list array -> Pidset.t array

(** {2 Content hashing}

    Traces used to be fingerprinted by [Digest.string (Marshal.to_string t [])],
    which serialises the whole history per run — the dominant allocation of a
    checker sweep. The replacement hashes the {e generators} of the execution
    instead: because protocols are deterministic (pure [broadcast]/[step], the
    contract of {!Protocol.t}), a history is a function of the state vector
    entering round 1 (plus any vector rewritten by a mid-run corruption), the
    realized crash pattern, the realized omissions, and the trace metadata.
    Equal hashes therefore imply equal executions exactly as with the Marshal
    digest — up to hash collisions, kept negligible by mixing two
    independently seeded structural-hash streams into one 62-bit word. *)

(** The content hash of the trace, computed incrementally by {!Runner.run}
    as the trace is built. Hashes are comparable between traces of the same
    provenance (two runner traces, or two [sub] windows); a [sub] of a whole
    trace hashes over more generators than the runner does and is not
    comparable with the original's hash. *)
val hash : ('s, 'm) t -> int

(** [round_signature ~project t] is the per-round behavioural signature of
    the execution: entry [r-1] is a 62-bit mix, over all processes, of
    [project p s] applied to each end-of-round state (crashed processes
    contribute a sentinel). The projection picks out the {e observable}
    part of the state — the round variable for Figure 1, the
    suspicion/decision registers for compiled protocols — so two rounds
    share a signature word exactly when they are behaviourally
    indistinguishable under the projection. The fuzzer's coverage signal:
    unlike {!val:hash}, which identifies whole executions, signature words
    expose which {e per-round} configurations a corpus has already
    visited. *)
val round_signature : project:(Pid.t -> 's -> int) -> ('s, 'm) t -> int array

(** The content hash is folded in two parts, so that executions sharing
    their generator vectors fold them once: {!hash_seed}, then
    {!fold_generator} on each generating state vector in round order
    (round 1's entering vector plus every vector a mid-run corruption
    rewrote), then {!seal_hash} on the per-trace rest. Exposed for
    {!Runner}; ordinary consumers read {!val:hash}. *)

val hash_seed : int

(** [fold_generator acc states] folds one generating state vector. *)
val fold_generator : int -> 's option array -> int

(** [seal_hash acc ~n ~protocol_name ~rounds ~crashed_at ~omissions
    ~declared_faulty] folds the trace metadata, crash pattern and
    omissions into the generator fold [acc]: the trace's content hash. *)
val seal_hash :
  int ->
  n:int ->
  protocol_name:string ->
  rounds:int ->
  crashed_at:int option array ->
  omissions:(int * Pid.t * Pid.t) list ->
  declared_faulty:Pidset.t ->
  int

(** [pp_summary] prints a one-line summary (rounds, n, faults). *)
val pp_summary : Format.formatter -> ('s, 'm) t -> unit

(** [pp_rounds pp_state ppf t] dumps the full history, one line per
    round: each process's start-of-round state ([!] marks crashed) and
    the senders it heard from. The debugging view of a trace. *)
val pp_rounds :
  (Format.formatter -> 's -> unit) -> Format.formatter -> ('s, 'm) t -> unit
