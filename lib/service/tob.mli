(** Self-stabilizing total-order broadcast (the middle of the service
    tower): a replicated log built from one {!Ftss_async.Mv_consensus}
    instance per slot, with the redundancy and repair machinery that lets
    a replica recover a consistent log and state-machine suffix after
    arbitrary transient corruption.

    The module is transport-free like the layers below it: [submit],
    [deliver] and [tick] return the messages to emit, the caller (the
    {!Service} simulation driver) owns routing, timers and the failure
    detector. Self-stabilization rests on four mechanisms, each cheap on
    the fault-free path:

    - an O(1) {e integrity guard} hashed over the replica's summary
      fields, checked on every entry point — a scrambled counter or
      digest is caught on the next step;
    - a {e cyclic audit} (every [audit_interval] ticks) re-deriving the
      KV digest from the table and one window of log content against the
      stored prefix digests, catching corruptions the guard cannot see;
    - {e checkpoint gossip} ([Tag] heartbeats carrying log length,
      consensus round, and checkpoint digests) for round agreement,
      catch-up, and cross-replica divergence detection;
    - {e majority-directed repair}: a replica whose checkpoint digest
      disagrees with a majority of live peers pulls a full state
      transfer; a KV-only divergence is repaired by local replay.

    Local recovery always rebuilds every derived structure from the log
    content and re-digests honestly, so a corruption that survives local
    repair (e.g. a blanked log entry) surfaces as a cross-replica digest
    conflict and is healed by state transfer from the correct majority. *)

open Ftss_util

(** [retransmit] is the paper's per-tick retransmission superimposition
    (and the per-tick re-broadcast of the latest decision); [recover]
    enables the guard/audit/conflict-repair machinery. The baseline style
    disables both — the ablation arm of experiment E14. *)
type style = { retransmit : bool; recover : bool }

val self_stabilizing : style
val baseline : style

type batch = Kv.op array

type msg =
  | Cons of { slot : int; m : batch Ftss_async.Mv_consensus.msg }
      (** consensus traffic for one slot *)
  | Decide of { slot : int; batch : batch }  (** decision dissemination *)
  | Fwd of batch  (** client-op forwarding to all replicas *)
  | Tag of { len : int; round : int; cp : int; cp_log : int; kvh : int; kv_d : int }
      (** the gossip heartbeat: log length, current consensus round,
          checkpoint height + log digest there, KV snapshot height +
          digest there *)
  | Pull_req of { from : int }
  | Pull_rep of { from : int; entries : batch array }

type out = Send of Pid.t * msg | Bcast of msg

(** Measurement journal drained by the driver after each call; times are
    supplied by the driver, so notes carry only protocol facts. *)
type note =
  | Submitted of { ops : int }
  | Committed of { slot : int; ops : int }
  | Applied of { slot : int; digest : int }
  | Recovered of { slots : int }

type t

(** [checkpoint] is the digest-gossip granularity in slots; [id_hint]
    pre-sizes the op-id bitsets. [profile] attributes the replica's
    work to the span profiler's [svc_*] phases on the given lane:
    [svc_slot] (consensus stepping, decide, apply), [svc_integrity]
    (local recovery after a guard mismatch), [svc_audit] (the cyclic
    deep audit), [svc_catchup] (pull protocol both sides), [svc_gossip]
    (Tag heartbeat handling). Unset, the instrumentation is a single option
    test per site. *)
val create :
  ?obs:Ftss_obs.Obs.t ->
  ?profile:Ftss_profile.Profile.lane ->
  n:int ->
  self:Pid.t ->
  style:style ->
  batch_max:int ->
  ?checkpoint:int ->
  ?id_hint:int ->
  unit ->
  t

(** [submit t ~now ops] enqueues client operations at this replica and
    forwards them to the others. *)
val submit : t -> now:int -> Kv.op array -> out list

val deliver : t -> now:int -> src:Pid.t -> msg -> out list

(** [tick t ~now ~suspected] runs the timer: integrity check, audit,
    conflict repair, consensus progress for the current slot, decision
    re-broadcast, and the [Tag] heartbeat. *)
val tick : t -> now:int -> suspected:(Pid.t -> bool) -> out list

val committed : t -> int
val applied : t -> int

(** Chained digest of the committed log prefix (the maintained field). *)
val log_digest : t -> int

(** Chained digest recomputed from log content — ground truth for the
    convergence oracle. *)
val content_digest : t -> int

(** [content_digests ts] is [List.map content_digest ts], computed
    faster: a replica commits the decided batch array itself, and no
    batch array is ever written after it is created, so a slot whose
    array is physically the first replica's has that replica's batch
    digest, and is hashed once for all of them. Any other array is
    hashed from its content. *)
val content_digests : t list -> int list

(** Incrementally maintained KV digest. *)
val kv_digest : t -> int

(** KV digest recomputed from the table — ground truth. *)
val kv_recomputed : t -> int

val recoveries : t -> int
val log_entry : t -> int -> batch
val kv : t -> Kv.t
val drain_notes : t -> note list

(** Systemic-failure scrambling: counters, prefix digests, KV table, log
    entries, bitsets, and the engine, chosen at random — the guard is
    deliberately left stale. Pending-queue contents are never destroyed
    (the adversary corrupts replica state, it does not retract client
    submissions). *)
val corrupt : Rng.t -> t -> t
