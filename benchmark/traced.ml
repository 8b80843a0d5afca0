(* The traced run. Every call into a layer is timed from here, outside the
   library: the tower driver below is a copy of [Service]'s Sim process
   with a timer around each call into [Tob], [Esfd] and (through [Tob])
   [Kv], and the sweep is a copy of [Explore]'s per-case loop with a timer
   around each call into [Property]. Each copy must reproduce the
   untraced result bit for bit (digests, verdict counts); the caller
   checks that, so a drifted copy fails instead of measuring some other
   program. *)

open Ftss_util
module Sim = Ftss_async.Sim
module Esfd = Ftss_async.Esfd
module Ewfd = Ftss_async.Ewfd
module Tob = Ftss_service.Tob
module Kv = Ftss_service.Kv
module Workload = Ftss_service.Workload
module Service = Ftss_service.Service
module Metrics = Ftss_obs.Metrics
module Property = Ftss_check.Property
module Schedule_enum = Ftss_check.Schedule_enum
module Clock = Ftss_profile.Profile

(* --- the recorder --- *)

(* Timed layers, indexing the accumulators. *)
let cons = 0
let decide = 1
let fwd = 2
let tag = 3
let pull = 4
let tob_tick = 5
let tob_submit = 6
let esfd_tick = 7
let esfd_receive = 8
let prop_run = 9
let prop_verdict = 10

let layer_names =
  [|
    "tob.deliver.cons"; "tob.deliver.decide"; "tob.deliver.fwd"; "tob.deliver.tag";
    "tob.deliver.pull"; "tob.tick"; "tob.submit"; "esfd.tick"; "esfd.receive";
    "property.run"; "property.verdict";
  |]

(* Exact per-layer totals, plus one span per timed call in preallocated
   flat arrays until [span_cap] is reached (later calls still count).
   Every span's parent is the root span, the whole traced call. Disarmed,
   [enter]/[leave] are one branch each: that is the "timers off" run the
   overhead is measured against. *)
type t = {
  armed : bool;
  calls : int array;
  ns : int array;
  words : float array;
  mark : int array;  (* start tick of the open call *)
  mark_words : float array;  (* [Gc.minor_words] at its start *)
  span_layer : int array;
  span_start : int array;
  span_end : int array;
  mutable spans : int;
  mutable dropped : int;
}

let span_cap = 65_536

let create ~armed =
  let k = Array.length layer_names in
  let cap = if armed then span_cap else 0 in
  {
    armed;
    calls = Array.make k 0;
    ns = Array.make k 0;
    words = Array.make k 0.;
    mark = [| 0 |];
    mark_words = [| 0. |];
    span_layer = Array.make cap 0;
    span_start = Array.make cap 0;
    span_end = Array.make cap 0;
    spans = 0;
    dropped = 0;
  }

let[@inline] enter t =
  if t.armed then begin
    t.mark_words.(0) <- Gc.minor_words ();
    t.mark.(0) <- Clock.now_ns ()
  end

let[@inline] leave t layer =
  if t.armed then begin
    let t1 = Clock.now_ns () in
    let t0 = t.mark.(0) in
    t.words.(layer) <- t.words.(layer) +. (Gc.minor_words () -. t.mark_words.(0));
    t.calls.(layer) <- t.calls.(layer) + 1;
    t.ns.(layer) <- t.ns.(layer) + (t1 - t0);
    let i = t.spans in
    if i < Array.length t.span_start then begin
      t.span_layer.(i) <- layer;
      t.span_start.(i) <- t0;
      t.span_end.(i) <- t1;
      t.spans <- i + 1
    end
    else t.dropped <- t.dropped + 1
  end

let timed_ns t = Array.fold_left ( + ) 0 t.ns

(* Chrome-trace JSON (Perfetto opens it): the root span [root] over
   [start, stop] and every recorded call nested under it, µs timebase. *)
let chrome_json t ~root ~start ~stop =
  let b = Buffer.create (64 + (t.spans * 96)) in
  let us ns = float_of_int (ns - start) /. 1e3 in
  let event name t0 t1 args =
    Printf.bprintf b
      {|{"name":"%s","ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{%s}}|} name
      (us t0)
      (float_of_int (t1 - t0) /. 1e3)
      args
  in
  Buffer.add_string b {|{"displayTimeUnit":"ns","traceEvents":[|};
  event root start stop (Printf.sprintf {|"dropped_spans":%d|} t.dropped);
  for i = 0 to t.spans - 1 do
    Buffer.add_char b ',';
    event layer_names.(t.span_layer.(i)) t.span_start.(i) t.span_end.(i)
      (Printf.sprintf {|"parent":"%s"|} root)
  done;
  Buffer.add_string b "]}";
  Buffer.contents b

(* --- the tower: a copy of Service's Sim process, timers added --- *)

type state = { tob : Tob.t; mutable fd : Esfd.t; mutable cursor : int }
type msg = Fd of Esfd.msg | Tb of Tob.msg

(* Counts the traced driver keeps whether or not its timers are armed. *)
type counts = { mutable events : int; mutable tob_msgs : int }

let send_outs ~n counts ctx outs =
  List.iter
    (function
      | Tob.Send (dst, m) ->
        counts.tob_msgs <- counts.tob_msgs + 1;
        Sim.send ctx dst (Tb m)
      | Tob.Bcast m ->
        counts.tob_msgs <- counts.tob_msgs + n;
        Sim.broadcast ctx (Tb m))
    outs

let flush_notes ctx tob = List.iter (Sim.observe ctx) (Tob.drain_notes tob)

let kind_of = function
  | Tob.Cons _ -> cons
  | Tob.Decide _ -> decide
  | Tob.Fwd _ -> fwd
  | Tob.Tag _ -> tag
  | Tob.Pull_req _ | Tob.Pull_rep _ -> pull

let process rc counts ~submit_at ~wl ~(params : Service.params) ~oracle =
  let n = params.n in
  {
    Sim.name = "service";
    init =
      (fun p ->
        {
          tob =
            Tob.create ~n ~self:p ~style:params.style ~batch_max:params.batch_max
              ~id_hint:(Workload.total wl) ();
          fd = Esfd.create ~n;
          cursor = 0;
        });
    on_message =
      (fun ctx s ~src m ->
        counts.events <- counts.events + 1;
        (match m with
        | Fd fm ->
          enter rc;
          let fd = Esfd.receive s.fd fm in
          leave rc esfd_receive;
          s.fd <- fd
        | Tb tm ->
          let now = Sim.now ctx in
          enter rc;
          let outs = Tob.deliver s.tob ~now ~src tm in
          leave rc (kind_of tm);
          send_outs ~n counts ctx outs;
          flush_notes ctx s.tob);
        s);
    on_tick =
      (fun ctx s ->
        counts.events <- counts.events + 1;
        let now = Sim.now ctx and self = Sim.self ctx in
        let ids = Workload.per_replica wl self in
        let fresh = ref [] in
        while s.cursor < Array.length ids && Workload.arrival wl ids.(s.cursor) <= now do
          submit_at.(ids.(s.cursor)) <- now;
          fresh := Workload.op wl ids.(s.cursor) :: !fresh;
          s.cursor <- s.cursor + 1
        done;
        if !fresh <> [] then begin
          let batch = Array.of_list (List.rev !fresh) in
          enter rc;
          let outs = Tob.submit s.tob ~now batch in
          leave rc tob_submit;
          send_outs ~n counts ctx outs
        end;
        enter rc;
        let fd, fmsg =
          Esfd.tick s.fd ~self
            ~detect:(fun subject -> Ewfd.detect oracle ~at:now ~observer:self ~subject)
        in
        leave rc esfd_tick;
        s.fd <- fd;
        Sim.broadcast ctx (Fd fmsg);
        enter rc;
        let outs = Tob.tick s.tob ~now ~suspected:(Esfd.suspected s.fd) in
        leave rc tob_tick;
        send_outs ~n counts ctx outs;
        flush_notes ctx s.tob;
        s);
  }

(* Fault injection, as in Service. *)
let storm_entries ~n ~seed (faults : Service.faults) =
  List.concat
    (List.mapi
       (fun i (time, victims) ->
         let rng = Rng.create (Kv.mix seed (0xA11 + i)) in
         let pids = Rng.sample rng (min victims n) (List.init n Fun.id) in
         List.map
           (fun p ->
             let prng = Rng.split rng in
             ( time,
               p,
               fun (s : state) ->
                 ignore (Tob.corrupt prng s.tob);
                 s.fd <- Esfd.corrupt prng ~num_bound:64 s.fd;
                 s ))
           pids)
       faults.storms)

let drop_fn ~seed windows =
  match windows with
  | [] -> None
  | _ ->
    Some
      (fun ~time ~src ~dst ->
        List.exists
          (fun (t0, t1, prob) ->
            time >= t0 && time <= t1
            && float_of_int (Kv.mix (Kv.mix seed time) (Kv.mix src dst) land 0xFFFF)
               /. 65536.0
               < prob)
          windows)

(* Service's split of a spec and its params over [shards] towers; the
   chained digests checked against [run_sharded] pin these copies. *)
let shard_spec (spec : Workload.spec) ~shards ~shard =
  let slice total i = (total / shards) + if i < total mod shards then 1 else 0 in
  {
    spec with
    Workload.ops = slice spec.Workload.ops shard;
    sessions = max 1 (slice spec.Workload.sessions shard);
    seed = Kv.mix spec.Workload.seed (0x5A0 + shard);
  }

let shard_params (params : Service.params) ~shard =
  { params with seed = Kv.mix params.seed (0x5B0 + shard) }

(* What one traced tower run measured. Digests and op counts are the
   reference replica's, as in [Service.report]; latency sums are in
   ticks over the [measured] ops. *)
type tower = {
  start : int;  (* clock ticks around Sim.run *)
  stop : int;
  wall_ns : int;  (* Sim.run, summed over shards *)
  log_digest : int;
  kv_digest : int;
  events : int;
  delivered : int;
  tob_msgs : int;
  slots : int;
  committed_ops : int;
  unique_ops : int;
  recoveries : int;
  lat : Metrics.lhist;
  measured : int;
  lat_sum : int;
  submit_sum : int;
  order_sum : int;
  apply_sum : int;
  replay_ns : int;  (* the reference log through a fresh Kv *)
  replay_ops : int;
  replay_ok : bool;  (* the replay's digest equals kv_digest *)
}

let tower rc ~wl (params : Service.params) =
  let n = params.n in
  let horizon =
    if params.horizon > 0 then params.horizon else (Workload.spec wl).window + 3000
  in
  let config =
    {
      Sim.n;
      seed = params.seed;
      gst = params.gst;
      delay_before_gst = (1, 40);
      delay_after_gst = (1, 4);
      tick_interval = params.tick_interval;
      crashes = params.faults.crashes;
      horizon;
    }
  in
  let crashed p = List.assoc_opt p params.faults.crashes in
  let trusted =
    let rec first p = if crashed p = None then p else first (p + 1) in
    first 0
  in
  let oracle =
    Ewfd.make (Rng.create (params.seed + 7)) ~n ~crashed ~gst:params.gst ~trusted
      ~noise:0.05
  in
  let corrupt_at = storm_entries ~n ~seed:params.seed params.faults in
  let drop = drop_fn ~seed:params.seed params.faults.omission in
  let total = Workload.total wl in
  let submit_at = Array.make total (-1) in
  let counts = { events = 0; tob_msgs = 0 } in
  let t0 = Clock.now_ns () in
  let result =
    Sim.run ~corrupt_at ?drop config
      (process rc counts ~submit_at ~wl ~params ~oracle)
  in
  let t1 = Clock.now_ns () in
  (* From here on, Service.run_measured's accounting, plus the stages. *)
  let live = ref [] in
  Array.iteri
    (fun p s -> match s with Some s -> live := (p, s) :: !live | None -> ())
    result.Sim.final_states;
  let live = List.rev !live in
  let live_pids = List.map fst live in
  let reference = match live with (_, s) :: _ -> Some s.tob | [] -> None in
  let slot_of = Array.make total (-1) in
  let committed_ops = ref 0 and unique_ops = ref 0 in
  let replay = Kv.create () in
  let replay_ns = ref 0 in
  (match reference with
  | Some tob ->
    for slot = 0 to Tob.committed tob - 1 do
      let batch = Tob.log_entry tob slot in
      let r0 = Clock.now_ns () in
      Kv.apply_batch replay batch;
      replay_ns := !replay_ns + (Clock.now_ns () - r0);
      Array.iter
        (fun (o : Kv.op) ->
          incr committed_ops;
          if o.Kv.id >= 0 && o.Kv.id < total && slot_of.(o.Kv.id) < 0 then begin
            slot_of.(o.Kv.id) <- slot;
            incr unique_ops
          end)
        batch
    done
  | None -> ());
  let max_slot = ref (-1) in
  List.iter
    (function
      | _, _, Tob.Applied { slot; _ } -> if slot > !max_slot then max_slot := slot
      | _ -> ())
    result.Sim.log;
  let slots = !max_slot + 1 in
  let first_apply = Array.make_matrix n (max 1 slots) max_int in
  let first_commit = Array.make_matrix n (max 1 slots) max_int in
  List.iter
    (fun (time, pid, note) ->
      match note with
      | Tob.Applied { slot; _ } ->
        if time < first_apply.(pid).(slot) then first_apply.(pid).(slot) <- time
      | Tob.Committed { slot; _ } ->
        if slot < slots && time < first_commit.(pid).(slot) then
          first_commit.(pid).(slot) <- time
      | Tob.Submitted _ | Tob.Recovered _ -> ())
    result.Sim.log;
  (* Latency: arrival -> first application at the origin (or the earliest
     live replica), as Service measures it, split at the origin's submit
     tick and at that replica's commit of the slot. The three stages
     telescope, so their sums add up to the latency sum exactly. *)
  let lat = Metrics.lhist_create () in
  let measured = ref 0 in
  let lat_sum = ref 0 and submit_sum = ref 0 and order_sum = ref 0 and apply_sum = ref 0 in
  let clamp lo hi x = max lo (min hi x) in
  for id = 0 to total - 1 do
    let s = slot_of.(id) in
    if s >= 0 && s < slots then begin
      let origin = Workload.origin wl id in
      let p =
        if first_apply.(origin).(s) < max_int then origin
        else
          List.fold_left
            (fun best p -> if first_apply.(p).(s) < first_apply.(best).(s) then p else best)
            origin live_pids
      in
      let t_apply = first_apply.(p).(s) in
      if t_apply < max_int then begin
        let arrival = Workload.arrival wl id in
        let latency = max 0 (t_apply - arrival) in
        Metrics.lobserve lat (float_of_int latency);
        incr measured;
        lat_sum := !lat_sum + latency;
        if latency > 0 then begin
          let t_sub = clamp arrival t_apply submit_at.(id) in
          let t_ord = clamp t_sub t_apply first_commit.(p).(s) in
          submit_sum := !submit_sum + (t_sub - arrival);
          order_sum := !order_sum + (t_ord - t_sub);
          apply_sum := !apply_sum + (t_apply - t_ord)
        end
      end
    end
  done;
  let log_digest, kv_digest =
    match reference with
    | Some tob -> (Tob.content_digest tob, Tob.kv_recomputed tob)
    | None -> (0, 0)
  in
  {
    start = t0;
    stop = t1;
    wall_ns = t1 - t0;
    log_digest;
    kv_digest;
    events = counts.events;
    delivered = result.Sim.delivered;
    tob_msgs = counts.tob_msgs;
    slots = (match reference with Some tob -> Tob.committed tob | None -> 0);
    committed_ops = !committed_ops;
    unique_ops = !unique_ops;
    recoveries = List.fold_left (fun acc (_, s) -> acc + Tob.recoveries s.tob) 0 live;
    lat;
    measured = !measured;
    lat_sum = !lat_sum;
    submit_sum = !submit_sum;
    order_sum = !order_sum;
    apply_sum = !apply_sum;
    replay_ns = !replay_ns;
    replay_ops = !committed_ops;
    replay_ok = Kv.recompute_digest replay = kv_digest;
  }

(* The towers [Service.run_sharded ~shards] would run for [spec]. *)
let shard_inputs ~shards ~(spec : Workload.spec) (params : Service.params) =
  List.init shards (fun shard ->
      ( Workload.create ~n:params.n (shard_spec spec ~shards ~shard),
        shard_params params ~shard ))

(* [towers rc inputs] runs each (workload, params) tower in turn on this
   domain. More than one is combined the way [Service.run_sharded] merges
   its reports: counters add, digests chain in shard order, histograms
   merge. *)
let towers rc inputs =
  match List.map (fun (wl, params) -> tower rc ~wl params) inputs with
  | [ only ] -> only
  | parts ->
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 parts in
    let chain f = List.fold_left (fun acc r -> Kv.chain acc (f r)) 0 parts in
    let lat = Metrics.lhist_create () in
    List.iter (fun r -> Metrics.lhist_merge lat r.lat) parts;
    {
      start = List.fold_left (fun acc r -> min acc r.start) max_int parts;
      stop = List.fold_left (fun acc r -> max acc r.stop) min_int parts;
      wall_ns = sum (fun r -> r.wall_ns);
      log_digest = chain (fun r -> r.log_digest);
      kv_digest = chain (fun r -> r.kv_digest);
      events = sum (fun r -> r.events);
      delivered = sum (fun r -> r.delivered);
      tob_msgs = sum (fun r -> r.tob_msgs);
      slots = sum (fun r -> r.slots);
      committed_ops = sum (fun r -> r.committed_ops);
      unique_ops = sum (fun r -> r.unique_ops);
      recoveries = sum (fun r -> r.recoveries);
      lat;
      measured = sum (fun r -> r.measured);
      lat_sum = sum (fun r -> r.lat_sum);
      submit_sum = sum (fun r -> r.submit_sum);
      order_sum = sum (fun r -> r.order_sum);
      apply_sum = sum (fun r -> r.apply_sum);
      replay_ns = sum (fun r -> r.replay_ns);
      replay_ops = sum (fun r -> r.replay_ops);
      replay_ok = List.for_all (fun r -> r.replay_ok) parts;
    }

(* --- the sweep: Explore's per-case loop on one domain, timers added --- *)

type sweep = { sweep_start : int; sweep_stop : int; distinct : int; states : int; violations : int }

let sweep rc (prop : Property.t) (cases : Schedule_enum.t array) =
  let seen = Hashtbl.create 4096 in
  let states = ref 0 and violations = ref 0 in
  let t0 = Clock.now_ns () in
  Array.iter
    (fun case ->
      enter rc;
      let r = prop.Property.run case in
      leave rc prop_run;
      states := !states + r.Property.states;
      let ok =
        match Hashtbl.find_opt seen r.Property.fingerprint with
        | Some ok -> ok
        | None ->
          enter rc;
          let v = Lazy.force r.Property.verdict in
          leave rc prop_verdict;
          Hashtbl.add seen r.Property.fingerprint v.Property.ok;
          v.Property.ok
      in
      if not ok then incr violations)
    cases;
  {
    sweep_start = t0;
    sweep_stop = Clock.now_ns ();
    distinct = Hashtbl.length seen;
    states = !states;
    violations = !violations;
  }
