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
    conflict and is healed by state transfer from the correct majority.

    A replica's log grows in exactly three ways: its own engine decides
    the next slot, a [Decide] arrives for exactly the next slot, or the
    reply to its own outstanding [Pull_req] arrives. A [Decide] for any
    later slot and a [Pull_rep] nobody asked for are dropped. Nothing
    ahead of the log is held, because held messages are state a
    transient fault can plant, and no stabilization bound covers a
    forged decision that commits whenever the log reaches its slot. A
    lagging replica still gets a missed slot from its peers: they answer
    its stale [Cons] with the [Decide], re-broadcast the latest decision
    every tick, and serve the pull a majority of longer logs triggers. *)

open Ftss_util

(** [stabilizing] switches on both self-stabilizing superimpositions
    together: the paper's per-tick retransmission (with the per-tick
    re-broadcast of the latest decision) and the guard/audit/conflict-repair
    machinery. The baseline style has neither — the ablation arm of
    experiment E14. *)
type style = { stabilizing : bool }

val self_stabilizing : style
val baseline : style

(** A proposed or decided batch: a short run of slices [(arr, lo, hi)]
    of the op arrays clients handed to {!submit} and [Fwd] carried,
    never a copy of the ops. A proposal of [batch_max] ops costs
    O(slices) words (one slice per run of pending ops from one array),
    and a replica's log keeps the submitted arrays themselves. The
    contract that makes the sharing sound: an array given to {!submit}
    or carried by [Fwd], and one given to {!batch}, is never written
    afterwards — it becomes log storage.

    A batch carries its {!Kv.batch_digest} (of its ops in slice order),
    computed at most once — by whichever replica first chains the batch
    into its log. Replicas exchange batches by reference, so every
    replica committing a decision reuses the one digest. The commit
    path, recovery's prefix re-chain, catch-up and a full pull's
    adopted-versus-held comparison chain these cached digests, in
    O(slots). The cyclic audit and {!content_digest}/{!content_digests}
    hash the ops themselves: they are the ground truth that would catch
    a batch whose ops and digest disagreed. *)
type batch

(** [batch ops] is the one-slice batch of all of [ops]: the payload of a
    hand-built [Decide] or [Pull_rep]; only the tests build messages
    outside this module. *)
val batch : Kv.op array -> batch

type msg =
  | Cons of { slot : int; m : batch Ftss_async.Mv_consensus.msg }
      (** consensus traffic for one slot *)
  | Decide of { slot : int; batch : batch }  (** decision dissemination *)
  | Fwd of Kv.op array
      (** client-op forwarding to all replicas; the receiver keeps
          slices of the array, which is never written afterwards *)
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

(** Digests are gossiped at every 64th slot. [id_hint] pre-sizes the
    op-id bitsets, and [key_hint] the KV table ({!Kv.create}'s [keys]:
    how many distinct keys the ops can touch). [profile] attributes the
    replica's work to the span profiler's [svc_*] phases on the given lane:
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
  ?id_hint:int ->
  ?key_hint:int ->
  unit ->
  t

(** [submit t ~now ops] enqueues client operations at this replica and
    forwards them to the others. The pending queue, the proposals and the
    log hold slices of [ops] itself, so it must not be written
    afterwards. *)
val submit : t -> now:int -> Kv.op array -> out list

val deliver : t -> now:int -> src:Pid.t -> msg -> out list

(** [tick t ~now ~suspected] runs the timer: integrity check, audit,
    conflict repair, consensus progress for the current slot, decision
    re-broadcast, and the [Tag] heartbeat. *)
val tick : t -> now:int -> suspected:(Pid.t -> bool) -> out list

val committed : t -> int

(** Chained digest of the committed log prefix (the maintained field).
    Test oracle: the tests check it against {!content_digest} after
    commits, recovery, catch-up and state transfer. *)
val log_digest : t -> int

(** Chained digest recomputed from log content — ground truth for the
    convergence oracle. *)
val content_digest : t -> int

(** [content_digests ts] is [List.map content_digest ts], computed
    faster: a replica commits the decided batch itself, and no batch or
    array it slices is ever written, so a slot whose batch is physically
    the first replica's has that replica's content hash, and is hashed
    once for all of them. Any other batch is hashed from its content. *)
val content_digests : t list -> int list

(** KV digest recomputed from the table — ground truth. *)
val kv_recomputed : t -> int

val recoveries : t -> int

(** [log_entry t i] is the ops of log slot [i], copied into a fresh
    array. *)
val log_entry : t -> int -> Kv.op array

(** [iter_log t f] calls [f slot op] on every op of the committed log,
    in slot order and in order within a slot, copying nothing. *)
val iter_log : t -> (int -> Kv.op -> unit) -> unit

val drain_notes : t -> note list

(** Systemic-failure scrambling: counters, prefix digests, KV table, log
    entries (blanked to the empty batch), bitsets, and the engine, chosen
    at random — the guard is deliberately left stale. Pending-queue
    contents are never destroyed (the adversary corrupts replica state, it
    does not retract client submissions). *)
val corrupt : Rng.t -> t -> t
