open Ftss_util
module Mv_consensus = Ftss_async.Mv_consensus

(* Self-stabilizing total-order broadcast: one {!Mv_consensus} instance
   per log slot, plus the machinery that makes the log itself
   self-stabilizing — an integrity guard over the replica's summary
   fields, a cyclic audit re-validating the log and KV state against
   their digests, checkpointed digest gossip that detects cross-replica
   divergence, and majority-directed state transfer that repairs it. *)

type style = { stabilizing : bool }

let self_stabilizing = { stabilizing = true }
let baseline = { stabilizing = false }

(* A batch is immutable once built, so its digest belongs to the value:
   it is computed at most once, by whichever replica first chains it, and
   every replica holding the same batch reuses it. A batch lives inside
   one run, on one domain, except [empty]. *)
type batch = { ops : Kv.op array; digest : int Lazy.t }

let batch ops = { ops; digest = lazy (Kv.batch_digest ops) }
let ops b = b.ops
let batch_digest b = Lazy.force b.digest
let size b = Array.length b.ops

(* Forced up front: [empty] is shared by every replica of every domain,
   and two domains forcing one lazy value at once is an error. *)
let empty = { ops = [||]; digest = Lazy.from_val (Kv.batch_digest [||]) }

type msg =
  | Cons of { slot : int; m : batch Mv_consensus.msg }
  | Decide of { slot : int; batch : batch }
  | Fwd of Kv.op array
  | Tag of { len : int; round : int; cp : int; cp_log : int; kvh : int; kv_d : int }
  | Pull_req of { from : int }
  | Pull_rep of { from : int; entries : batch array }

type out = Send of Pid.t * msg | Bcast of msg

type note =
  | Submitted of { ops : int }
  | Committed of { slot : int; ops : int }
  | Applied of { slot : int; digest : int }
  | Recovered of { slots : int }

type t = {
  n : int;
  self : Pid.t;
  style : style;
  batch_max : int;
  obs : Ftss_obs.Obs.t option;
  prof : Ftss_profile.Profile.lane option;
  (* the committed log: [0, committed) of [log] is live; [pdig.(i)] is
     the chained digest of the length-[i] prefix *)
  mutable log : batch array;
  mutable committed : int;
  mutable pdig : int array;
  (* the state machine *)
  kv : Kv.t;
  mutable applied : int;
  mutable kvh : int; (* height of the last KV checkpoint snapshot *)
  mutable kv_cp : int; (* table-recomputed KV digest at that height *)
  (* pending client operations: a flat FIFO, live in [pend.(head) ..
     pend.(tail - 1)], plus bitsets (indexed by op id) for dedup and
     committed-filtering *)
  mutable pend : Kv.op array;
  mutable head : int;
  mutable tail : int;
  mutable queued : Bytes.t;
  mutable donebits : Bytes.t;
  (* the consensus engine for slot [committed] *)
  mutable engine : batch Mv_consensus.t option;
  (* catch-up and repair *)
  mutable pull : (Pid.t * int * int) option;
      (* outstanding request: peer, tick it was issued, [from] asked for *)
  mutable log_conflict : Pidset.t;
  mutable log_agree : Pidset.t;
  mutable kv_conflict : Pidset.t;
  (* soft per-peer gossip state, refreshed by every [Tag] *)
  peer_len : int array;
  peer_cp : int array;
  peer_cpd : int array;
  (* clocks, audit cursor, integrity guard *)
  mutable ticks : int;
  mutable audit_cursor : int;
  mutable guard : int;
  (* measurement *)
  mutable notes : note list; (* reversed *)
  mutable recoveries : int;
}

let pending_capacity = 256 (* initial FIFO slots; doubled only when full *)
let no_op = { Kv.id = -1; kind = Kv.Get; key = 0; v1 = 0; v2 = 0 } (* filler *)
let pull_patience = 5 (* ticks before an unanswered pull may be retried *)
let audit_interval = 64 (* ticks between self-audits *)
let audit_window = 32 (* log slots re-validated per audit *)
let checkpoint = 64 (* digest-gossip granularity in slots *)

(* --- bitsets over op ids --- *)

let bit_get b i =
  i >= 0
  && i < 8 * Bytes.length b
  && Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let ensure_bits t i =
  if i >= 8 * Bytes.length t.queued then begin
    let bytes = max (2 * Bytes.length t.queued) ((i lsr 3) + 1) in
    let grow old =
      let b = Bytes.make bytes '\000' in
      Bytes.blit old 0 b 0 (Bytes.length old);
      b
    in
    t.queued <- grow t.queued;
    t.donebits <- grow t.donebits
  end

let is_done t (o : Kv.op) = bit_get t.donebits o.Kv.id

(* Marks every op of a batch done: a loop rather than [Array.iter] over
   a per-op function, whose partial application allocates a closure per
   batch. *)
let mark_done t ops =
  for i = 0 to Array.length ops - 1 do
    let id = ops.(i).Kv.id in
    ensure_bits t id;
    bit_set t.donebits id
  done

(* --- log storage --- *)

(* [pdig] is always one longer than [log], so every length [corrupt] can
   scramble [committed] to (at most the log's capacity) still indexes
   [pdig] — the guard reads [pdig.(committed)] before any repair. *)
let ensure_log_cap t k =
  if k > Array.length t.log then begin
    let cap = max (2 * Array.length t.log) k in
    let log = Array.make cap empty in
    Array.blit t.log 0 log 0 (Array.length t.log);
    t.log <- log;
    let pdig = Array.make (cap + 1) 0 in
    Array.blit t.pdig 0 pdig 0 (Array.length t.pdig);
    t.pdig <- pdig
  end

let cp_of len = len - (len mod checkpoint)

(* --- observability --- *)

let note t x = t.notes <- x :: t.notes

let drain_notes t =
  let ns = List.rev t.notes in
  t.notes <- [];
  ns

let emit t ~now body =
  match t.obs with
  | Some o -> Ftss_obs.Obs.emit o (Ftss_obs.Event.make ~time:now body)
  | None -> ()

(* Span profiling: the same option-test discipline as [emit]. Frames nest
   inside the simulator's handler frame, so tower self-times never double
   count against [sim_deliver]/[sim_dispatch]. *)
module Prof = Ftss_profile.Profile

let pf_enter t p = match t.prof with Some l -> Prof.enter l p | None -> ()
let pf_leave t = match t.prof with Some l -> ignore (Prof.leave l) | None -> ()

(* --- integrity guard --- *)

let guard_of t =
  Kv.mix
    (Kv.mix (Kv.mix t.committed t.pdig.(t.committed)) (Kv.mix t.applied (Kv.digest t.kv)))
    (Kv.mix t.kvh t.kv_cp)

let refresh_guard t = t.guard <- guard_of t

let create ?obs ?profile ~n ~self ~style ~batch_max ?(id_hint = 1024) ?key_hint () =
  if n < 1 then invalid_arg "Tob.create: n < 1";
  if batch_max < 1 then invalid_arg "Tob.create: batch_max < 1";
  let bytes = max 16 ((id_hint lsr 3) + 1) in
  let t =
    {
      n;
      self;
      style;
      batch_max;
      obs;
      prof = profile;
      log = Array.make 64 empty;
      committed = 0;
      pdig = Array.make 65 0;
      kv = Kv.create ?keys:key_hint ();
      applied = 0;
      kvh = 0;
      kv_cp = 0;
      pend = Array.make pending_capacity no_op;
      head = 0;
      tail = 0;
      queued = Bytes.make bytes '\000';
      donebits = Bytes.make bytes '\000';
      engine = None;
      pull = None;
      log_conflict = Pidset.empty;
      log_agree = Pidset.empty;
      kv_conflict = Pidset.empty;
      peer_len = Array.make n 0;
      peer_cp = Array.make n 0;
      peer_cpd = Array.make n 0;
      ticks = 0;
      audit_cursor = 0;
      guard = 0;
      notes = [];
      recoveries = 0;
    }
  in
  refresh_guard t;
  t

(* --- accessors --- *)

let committed t = t.committed
let log_digest t = t.pdig.(t.committed)
let kv_recomputed t = Kv.recompute_digest t.kv
let recoveries t = t.recoveries
let log_entry t i = t.log.(i).ops

(* Recompute the log-content digest chain from scratch, hashing the ops
   rather than trusting the batches' cached digests — the ground truth
   [pdig] is audited against, and the strict convergence check. *)
let content_digest t =
  let h = ref 0 in
  for i = 0 to t.committed - 1 do
    h := Kv.chain !h (Kv.batch_digest t.log.(i).ops)
  done;
  !h

(* [content_digest] for several replicas at once. Every replica that
   committed a decision holds the proposer's ops array itself, so a
   slot whose array is physically the first replica's reuses that
   replica's batch digest; any other array is hashed on its own. *)
let content_digests = function
  | [] -> []
  | first :: _ as ts ->
    let shared = Array.init first.committed (fun i -> Kv.batch_digest first.log.(i).ops) in
    List.map
      (fun t ->
        let h = ref 0 in
        for i = 0 to t.committed - 1 do
          let ops = t.log.(i).ops in
          let d =
            if i < Array.length shared && ops == first.log.(i).ops then shared.(i)
            else Kv.batch_digest ops
          in
          h := Kv.chain !h d
        done;
        !h)
      ts

(* The digest chain of the first [len] batches from their cached
   digests: O(slots), and unlike [pdig] it reflects an entry a
   corruption blanked. *)
let cached_chain entries len =
  let h = ref 0 in
  for i = 0 to len - 1 do
    h := Kv.chain !h (batch_digest entries.(i))
  done;
  !h

(* --- pending queue --- *)

(* The FIFO never allocates per op: [prune] only moves [head], the live
   range slides back to index 0 once [head] passes half the array, and
   the array doubles only when the live range fills it. *)
let compact t =
  let live = t.tail - t.head in
  Array.blit t.pend t.head t.pend 0 live;
  t.head <- 0;
  t.tail <- live

let prune t =
  while t.head < t.tail && is_done t t.pend.(t.head) do
    t.head <- t.head + 1
  done;
  if 2 * t.head > Array.length t.pend then compact t

let has_pending t =
  prune t;
  t.head < t.tail

let push_pending t o =
  if t.tail = Array.length t.pend then begin
    let pend = Array.make (2 * Array.length t.pend) no_op in
    Array.blit t.pend t.head pend 0 (t.tail - t.head);
    t.pend <- pend;
    t.tail <- t.tail - t.head;
    t.head <- 0
  end;
  t.pend.(t.tail) <- o;
  t.tail <- t.tail + 1

(* After [ensure_bits] the op's byte lies in both bitsets, which always
   have the same length: one checked read of [queued] covers the other
   accesses. *)
let enqueue_ops t ops =
  for i = 0 to Array.length ops - 1 do
    let o = ops.(i) in
    let id = o.Kv.id in
    ensure_bits t id;
    let byte = id lsr 3 and bit = 1 lsl (id land 7) in
    let q = Char.code (Bytes.get t.queued byte) in
    if (q lor Char.code (Bytes.unsafe_get t.donebits byte)) land bit = 0 then begin
      Bytes.unsafe_set t.queued byte (Char.unsafe_chr (q lor bit));
      push_pending t o
    end
  done

(* The proposal: the first [batch_max] not-done ops in FIFO order. One
   pass counts them, a second fills an array of exactly that length. *)
let make_batch t =
  prune t;
  let count = ref 0 and i = ref t.head in
  while !count < t.batch_max && !i < t.tail do
    if not (is_done t t.pend.(!i)) then incr count;
    incr i
  done;
  let ops = Array.make !count no_op in
  let k = ref 0 and i = ref t.head in
  while !k < !count do
    let o = t.pend.(!i) in
    if not (is_done t o) then begin
      ops.(!k) <- o;
      incr k
    end;
    incr i
  done;
  batch ops

(* --- applying the log --- *)

(* A call that crosses several checkpoint heights (a replay after
   recovery, or catch-up) snapshots only the last one: nothing reads
   [kvh]/[kv_cp] in between, and each snapshot is a full table scan. *)
let apply_forward t ~now =
  let last_cp = cp_of t.committed in
  while t.applied < t.committed do
    Kv.apply_batch t.kv t.log.(t.applied).ops;
    t.applied <- t.applied + 1;
    let digest = Kv.digest t.kv in
    note t (Applied { slot = t.applied - 1; digest });
    emit t ~now (Ftss_obs.Event.Apply { pid = t.self; slot = t.applied - 1; digest });
    if t.applied = last_cp then begin
      t.kvh <- t.applied;
      t.kv_cp <- Kv.recompute_digest t.kv
    end
  done

(* --- the consensus engine for slot [committed] --- *)

let map_outs slot outs =
  List.map
    (function
      | Mv_consensus.To (d, m) -> Send (d, Cons { slot; m })
      | Mv_consensus.All m -> Bcast (Cons { slot; m }))
    outs

let enter_engine t =
  let proposal = make_batch t in
  let eng, outs =
    Mv_consensus.create ~n:t.n ~self:t.self ~base:t.committed ~weight:size
      ~proposal
  in
  t.engine <- Some eng;
  map_outs t.committed outs

(* --- growing the log --- *)

(* The log grows three ways: this replica's engine decides slot
   [committed], a peer's [Decide] carries exactly that slot, or the reply
   to this replica's own pull arrives. Nothing ahead of the log is held —
   it would be state no stabilization bound covers. Each way ends here:
   the new entries are applied, and the next slot's engine is entered if
   any op is pending. *)
let advance t ~now =
  t.engine <- None;
  apply_forward t ~now;
  if has_pending t then enter_engine t else []

(* The decision for slot [committed], whoever decided it. *)
let commit_next t ~now batch =
  let slot = t.committed in
  ensure_log_cap t (slot + 1);
  t.log.(slot) <- batch;
  t.pdig.(slot + 1) <- Kv.chain t.pdig.(slot) (batch_digest batch);
  t.committed <- slot + 1;
  mark_done t batch.ops;
  note t (Committed { slot; ops = size batch });
  emit t ~now (Ftss_obs.Event.Commit { pid = t.self; slot; ops = size batch });
  advance t ~now

(* --- recovery --- *)

(* One recovery episode, whatever triggered it: a guard or audit
   mismatch, adopting a peer's log, or a KV divergence under an agreeing
   log. [committed] is clamped into the structurally possible range;
   then [log] and [committed] are taken as the new ground truth, and
   prefix digests, the KV state, both bitsets and the pending queue are
   recomputed from them. Entries a corruption blanked or garbled become
   part of the (honestly re-digested) log and are healed by the
   cross-replica conflict machinery. *)
let recover t ~now =
  if t.committed < 0 then t.committed <- 0;
  if t.committed > Array.length t.log then t.committed <- Array.length t.log;
  t.pdig.(0) <- 0;
  for i = 0 to t.committed - 1 do
    t.pdig.(i + 1) <- Kv.chain t.pdig.(i) (batch_digest t.log.(i))
  done;
  Kv.reset t.kv;
  t.applied <- 0;
  t.kvh <- 0;
  t.kv_cp <- 0;
  Bytes.fill t.queued 0 (Bytes.length t.queued) '\000';
  Bytes.fill t.donebits 0 (Bytes.length t.donebits) '\000';
  for i = 0 to t.committed - 1 do
    mark_done t t.log.(i).ops
  done;
  (* Refilter the FIFO in place, to the front of the array: the write
     index never passes the read index. *)
  let w = ref 0 in
  for r = t.head to t.tail - 1 do
    let o = t.pend.(r) in
    if not (is_done t o) && not (bit_get t.queued o.Kv.id) then begin
      bit_set t.queued o.Kv.id;
      t.pend.(!w) <- o;
      incr w
    end
  done;
  t.head <- 0;
  t.tail <- !w;
  t.engine <- None;
  t.pull <- None;
  t.log_conflict <- Pidset.empty;
  t.log_agree <- Pidset.empty;
  t.kv_conflict <- Pidset.empty;
  Array.fill t.peer_len 0 t.n 0;
  Array.fill t.peer_cp 0 t.n 0;
  Array.fill t.peer_cpd 0 t.n 0;
  apply_forward t ~now;
  refresh_guard t;
  t.recoveries <- t.recoveries + 1;
  note t (Recovered { slots = t.committed });
  emit t ~now (Ftss_obs.Event.Recover { pid = t.self; slots = t.committed })

(* The O(1) guard compare runs before every step, so only a mismatch —
   the recovery it triggers — opens a span. *)
let integrity_check t ~now =
  if t.style.stabilizing && t.guard <> guard_of t then begin
    pf_enter t Prof.Phase.svc_integrity;
    recover t ~now;
    pf_leave t
  end

(* The cyclic self-audit: re-derive the KV digest from the table, and
   re-validate one window of log content against the stored prefix
   digests. Either mismatch means a transient fault slipped past the
   cheap guard; local recovery re-digests honestly, after which
   cross-replica gossip repairs any surviving divergence. *)
let audit t ~now =
  if t.style.stabilizing && t.ticks mod audit_interval = 0 then begin
    pf_enter t Prof.Phase.svc_audit;
    if Kv.recompute_digest t.kv <> Kv.digest t.kv then recover t ~now
    else begin
      if t.audit_cursor >= t.committed then t.audit_cursor <- 0;
      let stop = min t.committed (t.audit_cursor + audit_window) in
      let h = ref t.pdig.(t.audit_cursor) in
      for i = t.audit_cursor to stop - 1 do
        h := Kv.chain !h (Kv.batch_digest t.log.(i).ops)
      done;
      let ok = !h = t.pdig.(stop) in
      t.audit_cursor <- stop;
      if not ok then recover t ~now
    end;
    pf_leave t
  end

let request_pull t peer ~from =
  match t.pull with
  | Some _ -> []
  | None ->
    t.pull <- Some (peer, t.ticks, from);
    [ Send (peer, Pull_req { from }) ]

(* --- client submissions --- *)

let submit t ~now ops =
  integrity_check t ~now;
  if Array.length ops = 0 then []
  else begin
    enqueue_ops t ops;
    note t (Submitted { ops = Array.length ops });
    emit t ~now (Ftss_obs.Event.Submit { pid = t.self; ops = Array.length ops });
    refresh_guard t;
    [ Bcast (Fwd ops) ]
  end

(* --- message handling --- *)

(* [slot = committed]: [deliver] answers stale slots and drops later
   ones before opening a span. *)
let on_cons t ~now ~src ~slot m =
  let outs = if t.engine = None then enter_engine t else [] in
  match t.engine with
  | None -> outs (* unreachable: enter_engine just installed one *)
  | Some eng ->
    let eng, mouts, verdict = Mv_consensus.receive eng ~src m in
    t.engine <- Some eng;
    let outs = outs @ map_outs slot mouts in
    (match verdict with
    | Mv_consensus.Decided batch ->
      outs @ (Bcast (Decide { slot; batch }) :: commit_next t ~now batch)
    | Mv_consensus.Continue -> outs)

(* Most [Tag]s change nothing: the peer is not on our next slot's
   engine, and its checkpoint verdict is the one already recorded. The
   engine step and the new conflict-set memberships are worked out
   first, and only a [Tag] that does work — a round jump, entering an
   engine, or a conflict-set change — opens a span. *)
let on_tag t ~src ~len ~round ~cp ~cp_log ~kvh ~kv_d =
  t.peer_len.(src) <- len;
  t.peer_cp.(src) <- cp;
  t.peer_cpd.(src) <- cp_log;
  let engine_work =
    len = t.committed
    &&
    match t.engine with
    | Some eng -> round > Mv_consensus.round eng
    | None ->
      (* The peer is running consensus on our next slot: participate,
         even with an empty proposal, so majorities can form. *)
      round >= 0
  in
  let judged =
    t.style.stabilizing
    && (not (Pid.equal src t.self))
    && cp >= 0
    && cp mod checkpoint = 0
    && cp <= t.committed
  in
  let diverges = judged && t.pdig.(cp) <> cp_log in
  let agrees = judged && not diverges in
  let log_conflict =
    if diverges then Pidset.add src t.log_conflict
    else if agrees then Pidset.remove src t.log_conflict
    else t.log_conflict
  in
  let log_agree =
    if diverges then Pidset.remove src t.log_agree
    else if agrees then Pidset.add src t.log_agree
    else t.log_agree
  in
  let kv_conflict =
    if agrees && kvh = t.kvh && kvh > 0 then
      if kv_d <> t.kv_cp then Pidset.add src t.kv_conflict
      else Pidset.remove src t.kv_conflict
    else t.kv_conflict
  in
  if
    engine_work
    || not
         (Pidset.equal log_conflict t.log_conflict
         && Pidset.equal log_agree t.log_agree
         && Pidset.equal kv_conflict t.kv_conflict)
  then begin
    pf_enter t Prof.Phase.svc_gossip;
    t.log_conflict <- log_conflict;
    t.log_agree <- log_agree;
    t.kv_conflict <- kv_conflict;
    let outs =
      if not engine_work then []
      else
        match t.engine with
        | Some eng ->
          let eng, mouts = Mv_consensus.jump eng ~round in
          t.engine <- Some eng;
          map_outs t.committed mouts
        | None -> enter_engine t
    in
    pf_leave t;
    outs
  end
  else []

(* Only the reply to this replica's own outstanding pull is adopted: a
   pull goes out only on majority evidence (a longer log, or a camp of
   conflicting peers outweighing ours), and an unasked-for reply has none. *)
let on_pull_rep t ~now ~src ~from ~entries =
  let len = Array.length entries in
  let asked = match t.pull with Some (p, _, f) -> Pid.equal p src && f = from | None -> false in
  if asked && from = 0 && len > 0 then begin
    (* The reply to a repair pull: we already established (by majority
       digest conflict) that our log is the divergent one, so the peer's
       log replaces ours wholesale — even at equal length, which is the
       common case for a divergence with no length gap. A reply identical
       to what we hold is a no-op. *)
    t.pull <- None;
    if len = t.committed && cached_chain entries len = cached_chain t.log len then []
    else begin
      ensure_log_cap t len;
      Array.blit entries 0 t.log 0 len;
      t.committed <- len;
      recover t ~now;
      advance t ~now
    end
  end
  else if asked && from <= t.committed && from + len > t.committed then begin
    (* Catch-up: adopt only the strict extension of the log we hold —
       the entries past our current length. If our prefix actually
       diverges from the peer's, checkpoint gossip detects it and the
       majority-gated repair path resolves it. *)
    t.pull <- None;
    let offset = t.committed - from in
    ensure_log_cap t (from + len);
    Array.blit entries offset t.log t.committed (len - offset);
    t.committed <- from + len;
    for i = from + offset to t.committed - 1 do
      t.pdig.(i + 1) <- Kv.chain t.pdig.(i) (batch_digest t.log.(i));
      mark_done t t.log.(i).ops
    done;
    advance t ~now
  end
  else []

let deliver t ~now ~src msg =
  integrity_check t ~now;
  let outs =
    match msg with
    | Fwd ops ->
      enqueue_ops t ops;
      []
    | Cons { slot; _ } when slot < t.committed ->
      [ Send (src, Decide { slot; batch = t.log.(slot) }) ]
    | Cons { slot; _ } when slot > t.committed ->
      (* A peer running consensus ahead of us is not, by itself,
         authority to transfer state — a corrupted replica's scrambled
         height would drag everyone along. Catch-up is majority-gated on
         [tick]. *)
      []
    | Cons { slot; m } ->
      pf_enter t Prof.Phase.svc_slot;
      let outs = on_cons t ~now ~src ~slot m in
      pf_leave t;
      outs
    | Decide { slot; batch } when slot = t.committed ->
      pf_enter t Prof.Phase.svc_slot;
      let outs = commit_next t ~now batch in
      pf_leave t;
      outs
    | Decide _ ->
      (* Mostly the per-tick re-broadcast of a slot committed here, not
         worth a span. A decision for a later slot is dropped, never held
         (see [advance]). *)
      []
    | Tag { len; round; cp; cp_log; kvh; kv_d } ->
      on_tag t ~src ~len ~round ~cp ~cp_log ~kvh ~kv_d
    | Pull_req { from } ->
      pf_enter t Prof.Phase.svc_catchup;
      let outs =
        if from >= 0 && from < t.committed then
          [ Send (src, Pull_rep { from; entries = Array.sub t.log from (t.committed - from) }) ]
        else []
      in
      pf_leave t;
      outs
    | Pull_rep { from; entries } ->
      pf_enter t Prof.Phase.svc_catchup;
      let outs = on_pull_rep t ~now ~src ~from ~entries in
      pf_leave t;
      outs
  in
  refresh_guard t;
  outs

(* --- the timer --- *)

let tick t ~now ~suspected =
  t.ticks <- t.ticks + 1;
  integrity_check t ~now;
  audit t ~now;
  (match t.pull with
  | Some (_, since, _) when t.ticks - since > pull_patience -> t.pull <- None
  | _ -> ());
  let outs = ref [] in
  let push os = outs := !outs @ os in
  let suspects = ref 0 in
  for p = 0 to t.n - 1 do
    if (not (Pid.equal p t.self)) && suspected p then incr suspects
  done;
  let alive_others = max 1 (t.n - 1 - !suspects) in
  (* Majority-gated catch-up: transfer the missing suffix only when more
     than half of the live peers advertise a longer log, and from a peer
     advertising the median such length — one corrupted replica
     advertising a scrambled-huge log cannot drag anyone along. *)
  let longer = ref [] in
  for p = 0 to t.n - 1 do
    if
      (not (Pid.equal p t.self))
      && (not (suspected p))
      && t.peer_len.(p) > t.committed
    then longer := (t.peer_len.(p), p) :: !longer
  done;
  let cnt = List.length !longer in
  if 2 * cnt > alive_others then begin
    let sorted = List.sort compare !longer in
    let _, peer = List.nth sorted (cnt / 2) in
    push (request_pull t peer ~from:t.committed)
  end;
  (* Cross-replica repair: a replica adopts another camp's log only when
     the largest group of conflicting peers that agree {e among
     themselves} outweighs its own camp (itself plus the peers agreeing
     with it) — so the divergent minority pulls from the correct
     majority, and the majority never adopts a corrupted log just
     because a suspected process shrank the denominator. Digest ties
     (camps of equal weight) are broken by the camps' advertised
     checkpoint digests, so exactly one side moves. A KV conflict under
     an agreeing log is repaired by replaying our own log. *)
  if t.style.stabilizing then begin
    if not (Pidset.is_empty t.log_conflict) then begin
      let groups = Hashtbl.create 8 in
      Pidset.iter
        (fun p ->
          let key = (t.peer_cp.(p), t.peer_cpd.(p)) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
          Hashtbl.replace groups key (p :: prev))
        t.log_conflict;
      (* Largest camp wins; equal-sized camps are ordered by their
         (checkpoint, digest) key so every replica elects the same one. *)
      let best =
        Hashtbl.fold
          (fun key ps acc ->
            match acc with
            | Some (k, a)
              when List.length a > List.length ps
                   || (List.length a = List.length ps && compare k key >= 0) -> acc
            | _ -> Some (key, ps))
          groups None
      in
      let my_camp = 1 + Pidset.cardinal t.log_agree in
      (match best with
      | Some (theirs, (peer :: _ as ps)) ->
        let mine = (cp_of t.committed, t.pdig.(cp_of t.committed)) in
        if
          List.length ps > my_camp
          || (List.length ps = my_camp && compare theirs mine > 0)
        then begin
          push (request_pull t peer ~from:0);
          t.log_conflict <- Pidset.empty;
          t.kv_conflict <- Pidset.empty
        end
      | Some (_, []) | None -> ())
    end
    else if 2 * Pidset.cardinal t.kv_conflict > alive_others then recover t ~now
  end;
  (* Drive the current slot's consensus. *)
  pf_enter t Prof.Phase.svc_slot;
  (match t.engine with
  | None -> if has_pending t then push (enter_engine t)
  | Some eng ->
    let slot = t.committed in
    let eng, mouts, verdict =
      Mv_consensus.tick eng ~suspected ~retransmit:t.style.stabilizing
    in
    t.engine <- Some eng;
    push (map_outs slot mouts);
    (match verdict with
    | Mv_consensus.Decided batch ->
      push (Bcast (Decide { slot; batch }) :: commit_next t ~now batch)
    | Mv_consensus.Continue -> ()));
  pf_leave t;
  (* The decision-retransmission superimposition: the latest committed
     slot is re-broadcast every tick, healing single-slot gaps fast. *)
  if t.style.stabilizing && t.committed > 0 then
    push
      [ Bcast (Decide { slot = t.committed - 1; batch = t.log.(t.committed - 1) }) ];
  (* The Tag heartbeat: combined round-agreement gossip (Figure 1 lifted
     to (slot, round)), catch-up beacon, and checkpoint digest exchange. *)
  let cp = cp_of t.committed in
  push
    [
      Bcast
        (Tag
           {
             len = t.committed;
             round = (match t.engine with Some e -> Mv_consensus.round e | None -> -1);
             cp;
             cp_log = t.pdig.(cp);
             kvh = t.kvh;
             kv_d = t.kv_cp;
           });
    ];
  refresh_guard t;
  !outs

(* --- the storm scrambler --- *)

let corrupt rng t =
  let cap = Array.length t.log in
  let actions = 1 + Rng.int rng 3 in
  for _ = 1 to actions do
    match Rng.int rng 6 with
    | 0 -> t.committed <- Rng.int rng (cap + 1)
    | 1 -> t.pdig.(Rng.int rng (min (Array.length t.pdig) (t.committed + 1))) <- Rng.int rng max_int
    | 2 -> Kv.corrupt rng ~keys:65536 t.kv
    | 3 -> t.applied <- Rng.int rng (max 1 (t.committed + 1))
    | 4 -> t.engine <- Option.map (Mv_consensus.corrupt rng) t.engine
    | _ -> if t.committed > 0 then t.log.(Rng.int rng t.committed) <- empty
  done;
  (* The guard is deliberately left stale: a transient fault does not
     maintain the redundancy that detects it. *)
  t
