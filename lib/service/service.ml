open Ftss_util
module Sim = Ftss_async.Sim
module Esfd = Ftss_async.Esfd
module Ewfd = Ftss_async.Ewfd

(* The top of the tower: Tob replicas + the Esfd.Layer ◇S detector over
   the Ewfd oracle, wired into the Sim engine, driven by a precomputed
   Workload, hit by a configurable fault mix (crashes, omission windows,
   mid-run corruption storms), and measured end to end — commit latency
   percentiles, throughput, convergence, and recovery time per storm. *)

type faults = {
  storms : (int * int) list;  (* (time, victims): corruption storms *)
  omission : (int * int * float) list;  (* (t0, t1, p): drop windows *)
  crashes : (Pid.t * int) list;
}

let no_faults = { storms = []; omission = []; crashes = [] }

type params = {
  n : int;
  seed : int;
  style : Tob.style;
  batch_max : int;
  gst : int;
  tick_interval : int;
  horizon : int;  (* 0 = workload window + drain margin *)
  faults : faults;
}

let default_params ~n ~seed =
  {
    n;
    seed;
    style = Tob.self_stabilizing;
    batch_max = 768;
    gst = 200;
    tick_interval = 10;
    horizon = 0;
    faults = no_faults;
  }

type percentiles = { p50 : float; p90 : float; p99 : float; p999 : float; max : float }

type report = {
  n : int;
  style : Tob.style;
  submitted : int;
  committed_slots : int;  (* min over live replicas *)
  committed_ops : int;  (* reference replica, duplicates included *)
  unique_ops : int;  (* distinct op ids in the reference log *)
  converged : bool;  (* equal (len, log digest, KV digest) on all live *)
  slots_checked : int;  (* per-slot apply-digest agreement ... *)
  slots_agreeing : int;  (* ... across live replicas *)
  log_digest : int;  (* content-recomputed, reference replica *)
  kv_digest : int;  (* table-recomputed, reference replica *)
  end_time : int;
  wall_seconds : float;
  latency : percentiles option;  (* arrival -> applied-at-origin, ticks *)
  measured_ops : int;
  throughput : float;  (* unique committed ops per wall second *)
  recoveries : int;  (* recovery episodes summed over live replicas *)
  storm_recovery : (int * int option * int option) list;
      (* per storm: (time, applying again after, last repair after) *)
  delivered : int;
  dropped : int;
}

(* Digest of the deterministic portion of a report (wall-clock excluded) —
   pinned by the golden determinism test. *)
let report_digest r =
  List.fold_left Kv.chain 0
    [
      r.submitted;
      r.committed_slots;
      r.committed_ops;
      r.unique_ops;
      (if r.converged then 1 else 0);
      r.slots_agreeing;
      r.log_digest;
      r.kv_digest;
      r.end_time;
    ]

(* --- the Sim process --- *)

type state = { tob : Tob.t; mutable fd : Esfd.Layer.t }
type msg = Fd of Esfd.Layer.msg | Tb of Tob.msg

let send_outs ctx outs =
  List.iter
    (function
      | Tob.Send (dst, m) -> Sim.send ctx dst (Tb m)
      | Tob.Bcast m -> Sim.broadcast ctx (Tb m))
    outs

let flush_notes ctx tob = List.iter (Sim.observe ctx) (Tob.drain_notes tob)

(* Client arrivals, one cursor per run: ops [0, next) have reached their
   origin replica's inbox, where the first [len.(p)] ids of [inbox.(p)]
   await replica [p]'s next tick, ascending. A crashed replica's inbox
   is never drained, as its ops are never submitted. *)
type arrivals = { mutable next : int; inbox : int array array; len : int array }

(* Route every op arrived by [now] to its origin's inbox. *)
let route a wl ~now =
  let total = Workload.total wl in
  while a.next < total && Workload.arrival wl a.next <= now do
    let p = Workload.origin wl a.next in
    let k = a.len.(p) in
    if k = Array.length a.inbox.(p) then begin
      let grown = Array.make (2 * k) 0 in
      Array.blit a.inbox.(p) 0 grown 0 k;
      a.inbox.(p) <- grown
    end;
    a.inbox.(p).(k) <- a.next;
    a.len.(p) <- k + 1;
    a.next <- a.next + 1
  done

let process ?obs ?profile ~wl ~params:(params : params) ~source () =
  let arrivals =
    {
      next = 0;
      inbox = Array.init params.n (fun _ -> Array.make 16 0);
      len = Array.make params.n 0;
    }
  in
  let keys = min (Workload.spec wl).Workload.keys (Workload.total wl) in
  {
    Sim.name = "service";
    init =
      (fun p ->
        {
          tob =
            Tob.create ?obs ?profile ~n:params.n ~self:p ~style:params.style
              ~batch_max:params.batch_max ~id_hint:(Workload.total wl) ~key_hint:keys ();
          fd = Esfd.Layer.create ~n:params.n source;
        });
    on_message =
      (fun ctx s ~src m ->
        (match m with
        | Fd fm -> s.fd <- Esfd.Layer.receive ?obs ctx ~src fm s.fd
        | Tb tm ->
          send_outs ctx (Tob.deliver s.tob ~now:(Sim.now ctx) ~src tm);
          flush_notes ctx s.tob);
        s);
    on_tick =
      (fun ctx s ->
        let now = Sim.now ctx and self = Sim.self ctx in
        (* Client arrivals attached to this replica since its last tick. *)
        route arrivals wl ~now;
        let k = arrivals.len.(self) in
        if k > 0 then begin
          let ids = arrivals.inbox.(self) in
          arrivals.len.(self) <- 0;
          send_outs ctx (Tob.submit s.tob ~now (Array.init k (fun i -> Workload.op wl ids.(i))))
        end;
        s.fd <- Esfd.Layer.tick ?obs ctx ~wrap:(fun m -> Fd m) s.fd;
        (* The protocol timer. *)
        send_outs ctx (Tob.tick s.tob ~now ~suspected:(Esfd.Layer.suspected s.fd));
        flush_notes ctx s.tob;
        s);
  }

(* --- fault injection --- *)

let storm_entries ~n ~seed faults =
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
                 s.fd <- Esfd.Layer.corrupt prng ~num_bound:64 s.fd;
                 s ))
           pids)
       faults.storms)

(* Hash-based omission: deterministic in (seed, time, src, dst), so the
   drop pattern is replayable without consuming the delay generator. *)
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

(* --- measurement --- *)

(* Log-bucketed streaming quantiles (constant memory, ~6% relative
   error) instead of sorting the full sample array: unbounded runs cost
   the same as short ones, and the estimate is unbiased across the whole
   run rather than privileging whichever prefix fit a reservoir. *)
let percentiles_of h =
  if Ftss_obs.Metrics.lhist_count h = 0 then None
  else
    Some
      {
        p50 = Ftss_obs.Metrics.lpercentile h 50.;
        p90 = Ftss_obs.Metrics.lpercentile h 90.;
        p99 = Ftss_obs.Metrics.lpercentile h 99.;
        p999 = Ftss_obs.Metrics.lpercentile h 99.9;
        max = Ftss_obs.Metrics.lhist_max h;
      }

(* [run_measured] is [run] plus the raw latency histogram, which the
   sharded driver merges across shards before taking percentiles
   (percentiles of percentiles would be wrong). *)
let run_measured ?obs ?profile ~wl (params : params) =
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
  let t0 = Sys.time () in
  let result =
    Sim.run ?obs ?profile ~corrupt_at ?drop config
      (process ?obs ?profile ~wl ~params ~source:(Esfd.Oracle oracle) ())
  in
  let wall_seconds = Sys.time () -. t0 in
  (* Survivors and the reference replica (lowest live pid). *)
  let live = ref [] in
  Array.iteri
    (fun p s -> match s with Some s -> live := (p, s) :: !live | None -> ())
    result.Sim.final_states;
  let live = List.rev !live in
  let reference = match live with (_, s) :: _ -> Some s | [] -> None in
  let committed_slots =
    List.fold_left
      (fun acc (_, s) -> min acc (Tob.committed s.tob))
      max_int live
    |> fun m -> if m = max_int then 0 else m
  in
  let summaries =
    let tobs = List.map (fun (_, s) -> s.tob) live in
    List.map2
      (fun tob content -> (Tob.committed tob, content, Tob.kv_recomputed tob))
      tobs (Tob.content_digests tobs)
  in
  let converged =
    match summaries with
    | [] -> false
    | first :: rest -> List.for_all (( = ) first) rest
  in
  (* Scan the observation log once: first/last apply time and last apply
     digest per (replica, slot), submissions, recovery episodes. *)
  let max_slot = ref (-1) in
  List.iter
    (function
      | _, _, Tob.Applied { slot; _ } -> if slot > !max_slot then max_slot := slot
      | _ -> ())
    result.Sim.log;
  let slots = !max_slot + 1 in
  let first_apply = Array.make_matrix n (max 1 slots) max_int in
  let last_apply_digest = Array.make_matrix n (max 1 slots) 0 in
  let submitted = ref 0 in
  let recover_times = ref [] in
  List.iter
    (fun (time, pid, note) ->
      match note with
      | Tob.Submitted { ops } -> submitted := !submitted + ops
      | Tob.Applied { slot; digest } ->
        if time < first_apply.(pid).(slot) then first_apply.(pid).(slot) <- time;
        last_apply_digest.(pid).(slot) <- digest
      | Tob.Recovered _ -> recover_times := (time, pid) :: !recover_times
      | Tob.Committed _ -> ())
    result.Sim.log;
  let live_pids = List.map fst live in
  (* Per-slot convergence: the digest of the last application of each
     fully shared slot must agree across live replicas. *)
  let slots_checked = min committed_slots slots in
  let slots_agreeing = ref 0 in
  for s = 0 to slots_checked - 1 do
    match live_pids with
    | [] -> ()
    | p0 :: rest ->
      if
        List.for_all
          (fun p -> last_apply_digest.(p).(s) = last_apply_digest.(p0).(s))
          rest
      then incr slots_agreeing
  done;
  (* One pass over the reference log in slot order counts every op and,
     at its first occurrence, its end-to-end latency: arrival -> first
     application at the origin replica (any live replica when the origin
     crashed or lags). A latency is a whole number of ticks in
     [0, end_time], so they are counted per value and enter the histogram
     once per distinct value: the same histogram as one sample per op,
     since a float sum of integers below 2^53 is exact in any order. *)
  let total = Workload.total wl in
  let seen = Bytes.make ((total + 7) / 8) '\000' in
  let committed_ops = ref 0 and unique_ops = ref 0 in
  let counts = Array.make (result.Sim.end_time + 1) 0 in
  let measured = ref 0 in
  (* Marks [id] seen; true the first time only. *)
  let first_seen id =
    if id < 0 || id >= total then false
    else begin
      let b = Char.code (Bytes.get seen (id lsr 3)) and bit = 1 lsl (id land 7) in
      Bytes.set seen (id lsr 3) (Char.chr (b lor bit));
      b land bit = 0
    end
  in
  (match reference with
  | Some r ->
    Tob.iter_log r.tob (fun s (o : Kv.op) ->
        incr committed_ops;
        let id = o.Kv.id in
        if first_seen id then begin
          incr unique_ops;
          if s < slots then begin
            let origin = Workload.origin wl id in
            let t_apply =
              if first_apply.(origin).(s) < max_int then first_apply.(origin).(s)
              else
                List.fold_left (fun acc p -> min acc first_apply.(p).(s)) max_int live_pids
            in
            if t_apply < max_int then begin
              let l = max 0 (t_apply - Workload.arrival wl id) in
              counts.(l) <- counts.(l) + 1;
              incr measured
            end
          end
        end)
  | None -> ());
  let lat = Ftss_obs.Metrics.lhist_create () in
  Array.iteri (fun l k -> Ftss_obs.Metrics.lobserve_n lat (float_of_int l) k) counts;
  (* Recovery after each storm: when does every live replica apply again,
     and when does the last repair episode in the storm's window end? *)
  let storm_times =
    List.sort_uniq compare (List.map fst params.faults.storms)
  in
  let bound_after t =
    match List.find_opt (fun t' -> t' > t) storm_times with
    | Some t' -> t'
    | None -> result.Sim.end_time + 1
  in
  let storm_recovery =
    List.map
      (fun t ->
        let resumed =
          List.fold_left
            (fun acc p ->
              let first =
                let best = ref max_int in
                for s = 0 to slots - 1 do
                  if first_apply.(p).(s) > t && first_apply.(p).(s) < !best then
                    best := first_apply.(p).(s)
                done;
                !best
              in
              match acc with
              | None -> None
              | Some worst -> if first = max_int then None else Some (max worst first))
            (Some 0) live_pids
        in
        let healed =
          List.fold_left
            (fun acc (rt, _) ->
              if rt > t && rt < bound_after t then
                Some (max (Option.value ~default:0 acc) (rt - t))
              else acc)
            None !recover_times
        in
        (t, Option.map (fun r -> r - t) resumed, healed))
      storm_times
  in
  let recoveries = List.fold_left (fun acc (_, s) -> acc + Tob.recoveries s.tob) 0 live in
  (* The reference replica is the head of [live], so its digests head
     [summaries]. *)
  let log_digest, kv_digest =
    match summaries with (_, log, kv) :: _ -> (log, kv) | [] -> (0, 0)
  in
  ( {
      n;
      style = params.style;
      submitted = !submitted;
      committed_slots;
      committed_ops = !committed_ops;
      unique_ops = !unique_ops;
      converged;
      slots_checked;
      slots_agreeing = !slots_agreeing;
      log_digest;
      kv_digest;
      end_time = result.Sim.end_time;
      wall_seconds;
      latency = percentiles_of lat;
      measured_ops = !measured;
      throughput =
        (if wall_seconds > 0.0 then float_of_int !unique_ops /. wall_seconds else 0.0);
      recoveries;
      storm_recovery;
      delivered = result.Sim.delivered;
      dropped = result.Sim.dropped_after_crash + result.Sim.dropped_by_adversary;
    },
    lat )

let run ?obs ?profile ~wl (params : params) =
  fst (run_measured ?obs ?profile ~wl params)

(* --- sharding --- *)

(* [shard_spec spec ~shards ~shard] carves shard [shard]'s slice out of
   the workload: ops and sessions split as evenly as integer division
   allows (the first [ops mod shards] shards take one extra op), and the
   generator seed is mixed per shard so shards draw distinct key/op
   streams. The split depends only on (spec, shards, shard) — never on
   how many domains execute it. *)
let shard_spec (spec : Workload.spec) ~shards ~shard =
  let slice total i = (total / shards) + if i < total mod shards then 1 else 0 in
  {
    spec with
    Workload.ops = slice spec.Workload.ops shard;
    sessions = max 1 (slice spec.Workload.sessions shard);
    seed = Kv.mix spec.Workload.seed (0x5A0 + shard);
  }

let shard_params (params : params) ~shard =
  { params with seed = Kv.mix params.seed (0x5B0 + shard) }

(* Merge a fixed-order array of shard reports into one. Counters add;
   [converged] requires every shard; digests chain in shard order (the
   order is the shard index, so the merged digest is independent of
   execution interleaving); latency histograms merge losslessly before
   percentiles are taken; storm recovery takes the worst shard per storm
   time. Wall time is the caller-measured parallel section, so merged
   throughput reflects actual elapsed time rather than a sum of
   per-shard clocks. *)
let merge_reports ~(params : params) ~wall_seconds
    (parts : (report * Ftss_obs.Metrics.lhist) array) =
  let sum f = Array.fold_left (fun acc (r, _) -> acc + f r) 0 parts in
  let fmax f =
    Array.fold_left (fun acc (r, _) -> max acc (f r)) min_int parts
  in
  let chain f =
    Array.fold_left (fun acc (r, _) -> Kv.chain acc (f r)) 0 parts
  in
  let lat = Ftss_obs.Metrics.lhist_create () in
  Array.iter (fun (_, l) -> Ftss_obs.Metrics.lhist_merge lat l) parts;
  let storm_recovery =
    let times =
      List.sort_uniq compare (List.map fst params.faults.storms)
    in
    List.map
      (fun t ->
        let worst pick =
          Array.fold_left
            (fun acc (r, _) ->
              match List.assoc_opt t (List.map (fun (t', a, b) -> (t', (a, b))) r.storm_recovery) with
              | None -> acc
              | Some entry -> (
                let v = pick entry in
                match (acc, v) with
                | None, _ | _, None -> None
                | Some a, Some b -> Some (max a b)))
            (Some 0) parts
        in
        (t, worst fst, worst snd))
      times
  in
  let unique_ops = sum (fun r -> r.unique_ops) in
  ( {
      n = params.n;
      style = params.style;
      submitted = sum (fun r -> r.submitted);
      committed_slots = sum (fun r -> r.committed_slots);
      committed_ops = sum (fun r -> r.committed_ops);
      unique_ops;
      converged = Array.for_all (fun (r, _) -> r.converged) parts;
      slots_checked = sum (fun r -> r.slots_checked);
      slots_agreeing = sum (fun r -> r.slots_agreeing);
      log_digest = chain (fun r -> r.log_digest);
      kv_digest = chain (fun r -> r.kv_digest);
      end_time = fmax (fun r -> r.end_time);
      wall_seconds;
      latency = percentiles_of lat;
      measured_ops = sum (fun r -> r.measured_ops);
      throughput =
        (if wall_seconds > 0.0 then float_of_int unique_ops /. wall_seconds
         else 0.0);
      recoveries = sum (fun r -> r.recoveries);
      storm_recovery;
      delivered = sum (fun r -> r.delivered);
      dropped = sum (fun r -> r.dropped);
    },
    lat )

let run_sharded ?obs ?profile ?(domains = 1) ~shards ~spec (params : params) =
  if shards < 1 then invalid_arg "Service.run_sharded: shards < 1";
  let module Prof = Ftss_profile.Profile in
  let lanes =
    Array.init shards (fun i ->
        Option.map (fun t -> Prof.lane t (Printf.sprintf "svc.shard%d" i)) profile)
  in
  (* Each shard owns its rng, queue and states, so the value a shard
     computes is a function of its index alone: results land in a slot
     per shard, bit-identical whatever the domain count or claiming
     interleaving. *)
  let parts = Array.make shards None in
  let run_shard i =
    let wl = Workload.create ~n:params.n (shard_spec spec ~shards ~shard:i) in
    (* No [obs] inside shards: the observability pipeline is not
       domain-safe, and per-shard streams would interleave
       nondeterministically. Shard summaries are exported as gauges
       after the merge instead. Profiler lanes are domain-safe by
       construction (one lane per shard, each owned by whichever domain
       claims the shard). *)
    parts.(i) <- Some (run_measured ?profile:lanes.(i) ~wl (shard_params params ~shard:i))
  in
  let t0 = Unix.gettimeofday () in
  Ftss_profile.Pool.run ?profile ~lane:"shards" ~domains shards
    (fun ~domain:_ ~first ~limit ->
      for i = first to limit - 1 do
        run_shard i
      done);
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let parts = Array.map Option.get parts in
  let merge_lane = Option.map (fun t -> Prof.lane t "svc.main") profile in
  (match merge_lane with Some l -> Prof.enter l Prof.Phase.chunk_merge | None -> ());
  let report, _ = merge_reports ~params ~wall_seconds parts in
  (match merge_lane with Some l -> ignore (Prof.leave l) | None -> ());
  (match obs with
  | None -> ()
  | Some o ->
    Ftss_obs.Obs.with_metrics o (fun m ->
        let set name v =
          Ftss_obs.Metrics.set (Ftss_obs.Metrics.gauge m name) v
        in
        set "service.shards" (float_of_int shards);
        set "service.domains" (float_of_int domains);
        Array.iteri
          (fun i ((r : report), _) ->
            let g fmt = Printf.sprintf fmt i in
            set (g "shard.%d.unique_ops") (float_of_int r.unique_ops);
            set (g "shard.%d.committed_slots") (float_of_int r.committed_slots);
            set (g "shard.%d.end_time") (float_of_int r.end_time);
            set (g "shard.%d.converged") (if r.converged then 1.0 else 0.0);
            set (g "shard.%d.wall_seconds") r.wall_seconds)
          parts));
  report

let pp_report ppf r =
  let pp_lat ppf = function
    | None -> Format.fprintf ppf "n/a"
    | Some l ->
      Format.fprintf ppf "p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f max=%.0f" l.p50 l.p90
        l.p99 l.p999 l.max
  in
  Format.fprintf ppf
    "@[<v>service n=%d style=%s@,\
     ops: %d submitted, %d unique committed (%d total) over %d slots@,\
     converged=%b slots agreeing=%d/%d@,\
     latency (ticks): %a@,\
     throughput: %.0f committed ops/s (wall %.2fs, sim end t=%d)@,\
     recoveries=%d delivered=%d dropped=%d@]"
    r.n
    (if r.style.Tob.stabilizing then "self-stabilizing" else "baseline")
    r.submitted r.unique_ops r.committed_ops r.committed_slots r.converged
    r.slots_agreeing r.slots_checked pp_lat r.latency r.throughput r.wall_seconds
    r.end_time r.recoveries r.delivered r.dropped
