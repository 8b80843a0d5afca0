(* The benchmark: four workloads over the service tower and the checker.
   An untraced run times whole public calls from outside with a monotonic
   clock and checks their outputs; a traced run (Traced) splits the same
   work into its layers. README.md gives the commands, why each workload
   is there, and which end-to-end metric each layer metric should move. *)

module W = Ftss_service.Workload
module S = Ftss_service.Service
module E = Ftss_check.Explore
module SE = Ftss_check.Schedule_enum
module Property = Ftss_check.Property
module Metrics = Ftss_obs.Metrics
module Clock = Ftss_profile.Profile
module J = Ftss_obs.Json
module Rng = Ftss_util.Rng

let default_seed = 101
let now = Clock.now_ns
let secs ns = float_of_int ns /. 1e9
let ratio a b = if b = 0. then 0. else a /. b
let nproc () = Domain.recommended_domain_count ()
let max_domains () = min 2 (nproc ())

(* Every timed call starts from a collected heap, so one call's garbage
   is not charged to the next. *)
let timed f =
  Gc.full_major ();
  let t0 = now () in
  let r = f () in
  (r, now () - t0)

(* [timed], plus the GC counters before and after the call. Minor words
   include every domain's; collections stop all domains. *)
let timed_gc f =
  let g0 = ref (Gc.quick_stat ()) in
  let r, ns =
    timed (fun () ->
        g0 := Gc.quick_stat ();
        f ())
  in
  (r, ns, !g0, Gc.quick_stat ())

(* Quartiles as Python's [statistics.quantiles xs ~n:4] computes them (its
   default "exclusive" method); one sample is its own quartiles. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  match Array.length a with
  | 0 -> (0., 0., 0.)
  | 1 -> (a.(0), a.(0), a.(0))
  | len ->
    let q i =
      let m = len + 1 in
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* --- inputs --- *)

let n = 5
let shards = 4

(* E14's headline inputs: 1M ops from 1M sessions on 65,536 Zipf(0.9)
   keys over 20,000 ticks with 4x bursts. The smoke run keeps every
   proportion but shrinks ops and window 50x and 5x. *)
let tower_spec ~smoke seed =
  {
    W.default_spec with
    W.ops = (if smoke then 20_000 else 1_000_000);
    sessions = 1_000_000;
    window = (if smoke then 4_000 else 20_000);
    seed;
  }

(* The simulator seed (message delays, storm victims and damage) stays
   E14's 202 whatever the workload seed: under E14's storms about one
   simulator seed in five leaves a replica with a log that is never
   repaired (README.md, "Known defect"), and a workload must not fail.
   tower_storm adds E14's faults, placed at the same fractions of the
   window. *)
let sim_seed = 202

let tower_params ~storm (spec : W.spec) =
  let at t = t * spec.W.window / 20_000 in
  let faults =
    if storm then
      {
        S.storms = [ (at 8_000, 2); (at 14_000, 2) ];
        omission = [ (at 5_000, at 5_600, 0.25) ];
        crashes = [];
      }
    else S.no_faults
  in
  { (S.default_params ~n ~seed:sim_seed) with S.batch_max = 1_024; faults }

let sweep_params ~smoke =
  if smoke then { SE.n = 3; rounds = 4; f = 1; intervals = true; drops = true }
  else { SE.n = 4; rounds = 6; f = 2; intervals = true; drops = true }

(* The seed fixes the order in which the cases reach the explorer; the
   verdict counts do not depend on it. *)
let sweep_cases ~smoke seed =
  let cases = SE.enumerate (sweep_params ~smoke) in
  let rng = Rng.create seed in
  for i = Array.length cases - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let c = cases.(i) in
    cases.(i) <- cases.(j);
    cases.(j) <- c
  done;
  cases

let sweep_digest ~violations ~distinct ~states =
  Printf.sprintf "violations=%d distinct=%d states=%d" violations distinct states

(* Outputs recorded from this workload spec at the default seed. *)
let pinned workload ~seed =
  match workload with
  | "tower_steady" when seed = default_seed ->
    Some "log=295604812397983189 kv=3099216151962728502"
  | "tower_storm" when seed = default_seed ->
    Some "log=313364071297888628 kv=4033268044986961533"
  | "tower_sharded" when seed = default_seed -> Some "report=2488888707874944687"
  | "check_sweep" -> Some (sweep_digest ~violations:0 ~distinct:318_935 ~states:7_988_520)
  | _ -> None

(* --- the untraced run --- *)

(* One timed call: items done (unique committed ops or checked cases),
   items attempted, whether its own checks held, the digest that must
   repeat across calls, and (tower_* only) [Service.report.throughput]
   for the README's clock comparison. *)
type outcome = {
  items : int;
  attempted : int;
  ok : bool;
  digest : string;
  report_throughput : float;
}

type bench = {
  domains : int;
  prepare : unit -> unit -> outcome;  (* the set-up; returns the timed call *)
  pins : unit -> string list;  (* checks made once per run, beyond the calls *)
}

let tower_outcome (spec : W.spec) digest (r : S.report) =
  {
    items = r.S.unique_ops;
    attempted = spec.W.ops;
    ok = r.S.converged && r.S.slots_agreeing = r.S.slots_checked && r.S.unique_ops = spec.W.ops;
    digest;
    report_throughput = r.S.throughput;
  }

let single_digest (r : S.report) = Printf.sprintf "log=%d kv=%d" r.S.log_digest r.S.kv_digest
let sharded_digest r = Printf.sprintf "report=%d" (S.report_digest r)

let bench_of ~smoke ~seed workload =
  let no_pins () = [] in
  match workload with
  | "tower_steady" | "tower_storm" ->
    let spec = tower_spec ~smoke seed in
    let params = tower_params ~storm:(workload = "tower_storm") spec in
    {
      domains = 1;
      prepare =
        (fun () ->
          let wl = W.create ~n spec in
          fun () ->
            let r = S.run ~wl params in
            tower_outcome spec (single_digest r) r);
      pins = no_pins;
    }
  | "tower_sharded" ->
    let spec = tower_spec ~smoke seed in
    let params = tower_params ~storm:false spec in
    let domains = max_domains () in
    {
      domains;
      (* run_sharded builds its shard workloads inside the call; the set-up
         times building the same four, for comparison. *)
      prepare =
        (fun () ->
          ignore (Traced.shard_inputs ~shards ~spec params);
          fun () ->
            let r = S.run_sharded ~domains ~shards ~spec params in
            tower_outcome spec (sharded_digest r) r);
      pins = no_pins;
    }
  | "check_sweep" ->
    let domains = max_domains () in
    let prop = Property.theorem4 () in
    {
      domains;
      prepare =
        (fun () ->
          let cases = sweep_cases ~smoke seed in
          fun () ->
            let st, _ = E.run ~domains prop cases in
            let cases = Array.length cases in
            {
              items = cases;
              attempted = cases;
              ok = st.E.violations = [];
              digest =
                sweep_digest ~violations:(List.length st.E.violations)
                  ~distinct:st.E.distinct ~states:st.E.states;
              report_throughput = 0.;
            });
      (* Theorem 3 with the frozen-exchange injection must be refuted, on
         exactly the recorded cases. *)
      pins =
        (fun () ->
          let params =
            if smoke then { SE.n = 3; rounds = 3; f = 1; intervals = true; drops = true }
            else { SE.n = 4; rounds = 3; f = 2; intervals = true; drops = true }
          in
          let cases = SE.enumerate params in
          let st, _ = E.run ~domains (Property.theorem3 ~inject:`Frozen_exchange ()) cases in
          let found = List.length st.E.violations in
          let expected = if smoke then found > 0 else found = 6_663 && Array.length cases = 46_415 in
          if expected then []
          else
            [
              Printf.sprintf "theorem3 frozen-exchange: %d violations in %d cases" found
                (Array.length cases);
            ]);
    }
  | w -> invalid_arg ("unknown workload " ^ w)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (Spec.metric * float) list;
  lines : string list;  (* what the run did, for people *)
  record : J.t option;  (* for [run --out] and [agree] *)
}

let git_rev () =
  let read f =
    try Some (String.trim (In_channel.with_open_bin f In_channel.input_all))
    with Sys_error _ -> None
  in
  let packed name =
    Option.bind (read ".git/packed-refs") (fun text ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ sha; r ] when r = name -> Some sha
            | _ -> None)
          (String.split_on_char '\n' text))
  in
  let sha =
    match read ".git/HEAD" with
    | Some head when String.starts_with ~prefix:"ref: " head ->
      let name = String.sub head 5 (String.length head - 5) in
      (match read (".git/" ^ name) with Some s -> Some s | None -> packed name)
    | other -> other
  in
  match sha with Some s when String.length s >= 12 -> String.sub s 0 12 | _ -> "unknown"

let measure ~smoke ~seed ~seconds workload =
  let b = bench_of ~smoke ~seed workload in
  (* Set-ups are timed first, in the fresh process, so their time does not
     depend on the heap a call leaves behind. *)
  let setups =
    List.init (if smoke then 1 else 5) (fun _ -> secs (snd (timed b.prepare)))
  in
  let call = b.prepare () in
  (* The warm-up call is checked like the others; the heap peak is read
     after it, so it covers one set-up and one call. *)
  let warm, warm_ns = timed call in
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let pin_errors = b.pins () in
  let reps = ref [] in
  let t_start = now () in
  let rec loop () =
    let o, ns = timed call in
    reps := (o, secs ns) :: !reps;
    if secs (now () - t_start) < seconds then loop ()
  in
  loop ();
  let reps = List.rev !reps in
  let expected = Option.value (pinned workload ~seed) ~default:warm.digest in
  let good (o : outcome) = o.ok && o.digest = warm.digest && (smoke || o.digest = expected) in
  let calls = warm :: List.map fst reps in
  let attempted = List.fold_left (fun acc (o : outcome) -> acc + o.attempted) 0 calls in
  let failed =
    List.fold_left (fun acc (o : outcome) -> if good o then acc else acc + o.attempted) 0 calls
  in
  let rates = List.map (fun ((o : outcome), s) -> float_of_int o.items /. s) reps in
  let samples =
    [ ("setup_s", setups); ("items_per_s", rates); ("peak_heap_mb", [ peak_mb ]) ]
  in
  let stat (m : Spec.metric) =
    let xs = List.assoc m.name samples in
    let q1, med, q3 = quartiles xs in
    ( m.name,
      J.Obj
        [
          ("unit", J.String m.unit);
          ("median", J.Float med);
          ("q1", J.Float q1);
          ("q3", J.Float q3);
          ("n", J.Int (List.length xs));
        ] )
  in
  let rep_line i ((o : outcome), s) =
    Printf.sprintf "  rep %d: %d items in %.3f s (%.0f/s)%s" (i + 1) o.items s
      (float_of_int o.items /. s)
      (if good o then "" else Printf.sprintf " FAILED (%s)" o.digest)
  in
  let correct = failed = 0 && pin_errors = [] in
  let record =
    J.Obj
      ([
         ("workload", J.String workload);
         ("rev", J.String (git_rev ()));
         ("nproc", J.Int (nproc ()));
         ("domains", J.Int b.domains);
         ("seed", J.Int seed);
         ("seconds", J.Float seconds);
         ("reps", J.Int (List.length reps));
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ("digest", J.String warm.digest);
         ("metrics", J.Obj (List.map stat Spec.end_to_end));
         ("cold_items_per_s", J.Float (float_of_int warm.items /. secs warm_ns));
       ]
      @
      if workload = "check_sweep" then []
      else
        [
          ( "report_throughput_median",
            J.Float (median (List.map (fun ((o : outcome), _) -> o.report_throughput) reps)) );
        ])
  in
  {
    correct;
    attempted;
    failed;
    metrics =
      List.map
        (fun (m : Spec.metric) -> (m, median (List.assoc m.name samples)))
        Spec.end_to_end;
    lines =
      Printf.sprintf "%s seed=%d domains=%d nproc=%d: warm-up %d items in %.3f s, %s"
        workload seed b.domains (nproc ()) warm.items (secs warm_ns) warm.digest
      :: List.mapi rep_line reps
      @ List.map (fun e -> "  FAILED: " ^ e) pin_errors;
    record = Some record;
  }

(* --- the traced run --- *)

(* Per-layer metrics not set by a workload read 0: the layer did not run. *)
let layer_table () =
  let t = Hashtbl.create 64 in
  List.iter (fun (m : Spec.metric) -> Hashtbl.replace t m.name 0.) Spec.per_layer;
  let set name v =
    if not (Hashtbl.mem t name) then invalid_arg ("not a per-layer metric: " ^ name);
    Hashtbl.replace t name (if Float.is_finite v then v else 0.)
  in
  (t, set)

let set_gc set ~items (g0 : Gc.stat) (g1 : Gc.stat) =
  set "gc.minor_words_per_item" (ratio (g1.Gc.minor_words -. g0.Gc.minor_words) (float items));
  set "gc.minor_collections" (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
  set "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))

(* Runs [pair ()] (timers off, then on) until [seconds] have passed since
   [t_start], at least once; returns the off and on results, newest
   first. *)
let pairs ~t_start ~seconds pair =
  let rec go acc =
    let acc = pair () :: acc in
    if secs (now () - t_start) < seconds then go acc else acc
  in
  go []

let overhead_pct offs ons = 100. *. ratio (median ons -. median offs) (median offs)

(* A traced run: its failed checks, the items its calls attempted, the
   Chrome trace of its last timed pass, and what it did, for people. *)
type traced = { errors : string list; attempted : int; chrome : string; t_lines : string list }

let trace_tower ~smoke ~seed ~seconds workload set =
  let t_start = now () in
  let spec = tower_spec ~smoke seed in
  let params = tower_params ~storm:(workload = "tower_storm") spec in
  let sharded = workload = "tower_sharded" in
  let inputs =
    if sharded then Traced.shard_inputs ~shards ~spec params else [ (W.create ~n spec, params) ]
  in
  let domains = max_domains () in
  let call domains () =
    if sharded then S.run_sharded ~domains ~shards ~spec params
    else S.run ~wl:(fst (List.hd inputs)) params
  in
  let report, outside_ns, g0, g1 = timed_gc (call domains) in
  let digest = if sharded then sharded_digest report else single_digest report in
  let base = tower_outcome spec digest report in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if not base.ok then fail "the untraced tower did not converge on every op (%s)" digest;
  if sharded then begin
    let r1, d1_ns = timed (call 1) in
    if sharded_digest r1 <> digest then
      fail "run_sharded digests differ at d1 and d%d: %s, %s" domains (sharded_digest r1) digest;
    let speedup = ratio (secs d1_ns) (secs outside_ns) in
    set "shards.speedup" speedup;
    set "shards.parallel_efficiency" (speedup /. float_of_int domains)
  end;
  set_gc set ~items:report.S.unique_ops g0 g1;
  set "service.post_run_pct"
    (100. *. ratio (secs outside_ns -. report.S.wall_seconds) (secs outside_ns));
  let lat =
    Option.value report.S.latency
      ~default:{ S.p50 = Float.nan; p90 = Float.nan; p99 = Float.nan; p999 = Float.nan; max = Float.nan }
  in
  set "latency.p50_ticks" lat.S.p50;
  set "latency.p99_ticks" lat.S.p99;
  set "latency.p999_ticks" lat.S.p999;
  let worst pick =
    List.fold_left
      (fun acc entry -> match pick entry with Some t -> max acc t | None -> acc)
      0 report.S.storm_recovery
  in
  set "storm.resume_ticks" (float_of_int (worst (fun (_, r, _) -> r)));
  set "storm.heal_ticks" (float_of_int (worst (fun (_, _, h) -> h)));
  (* The traced driver must have run the same program. *)
  let verify label (t : Traced.tower) =
    let p q = Metrics.lpercentile t.Traced.lat q in
    if t.Traced.log_digest <> report.S.log_digest || t.Traced.kv_digest <> report.S.kv_digest
    then
      fail "%s traced digests log=%d kv=%d differ from Service's log=%d kv=%d" label
        t.Traced.log_digest t.Traced.kv_digest report.S.log_digest report.S.kv_digest;
    if not t.Traced.replay_ok then fail "%s: the KV replay digest differs" label;
    if t.Traced.submit_sum + t.Traced.order_sum + t.Traced.apply_sum <> t.Traced.lat_sum then
      fail "%s: latency stages do not sum to the latency" label;
    if
      t.Traced.measured <> report.S.measured_ops
      || p 50. <> lat.S.p50 || p 99. <> lat.S.p99 || p 99.9 <> lat.S.p999
    then fail "%s: traced latency differs from Service's" label
  in
  let runs =
    pairs ~t_start ~seconds (fun () ->
        let off = Traced.towers (Traced.create ~armed:false) inputs in
        let rc = Traced.create ~armed:true in
        let on = Traced.towers rc inputs in
        verify "timers off" off;
        verify "timers on" on;
        (off, (rc, on)))
  in
  let offs = List.map (fun (off, _) -> float_of_int off.Traced.wall_ns) runs in
  let ons = List.map (fun (_, (_, on)) -> float_of_int on.Traced.wall_ns) runs in
  let rc, on = snd (List.hd runs) in
  let wall = float_of_int on.Traced.wall_ns in
  let pct layer = 100. *. ratio (float_of_int rc.Traced.ns.(layer)) wall in
  let per_op x = ratio (float_of_int x) (float_of_int on.Traced.unique_ops) in
  let per_slot x = ratio (float_of_int x) (float_of_int on.Traced.slots) in
  let mean x = ratio (float_of_int x) (float_of_int on.Traced.measured) in
  set "traced_wall_ms" (wall /. 1e6);
  set "trace_overhead_pct" (overhead_pct offs ons);
  set "sim.events" (float_of_int on.Traced.events);
  set "sim.self_pct" (100. *. ratio (wall -. float_of_int (Traced.timed_ns rc)) wall);
  set "sim.delivered_per_op" (per_op on.Traced.delivered);
  List.iter
    (fun layer ->
      let name = Traced.layer_names.(layer) in
      set (name ^ ".calls") (float_of_int rc.Traced.calls.(layer));
      set (name ^ ".pct") (pct layer);
      if layer < Traced.esfd_tick then set (name ^ ".minor_words") rc.Traced.words.(layer))
    Traced.[ cons; decide; fwd; tag; pull; tob_tick; tob_submit; esfd_tick; esfd_receive ];
  set "tob.slots" (float_of_int on.Traced.slots);
  set "tob.ops_per_slot" (per_slot on.Traced.committed_ops);
  set "tob.msgs_per_slot" (per_slot on.Traced.tob_msgs);
  set "tob.unique_frac"
    (ratio (float_of_int on.Traced.unique_ops) (float_of_int on.Traced.committed_ops));
  set "tob.recoveries" (float_of_int on.Traced.recoveries);
  set "kv.replay_ops_per_s"
    (ratio (float_of_int on.Traced.replay_ops) (secs on.Traced.replay_ns));
  set "latency.mean_ticks" (mean on.Traced.lat_sum);
  set "stage.submit_wait_ticks_mean" (mean on.Traced.submit_sum);
  set "stage.order_ticks_mean" (mean on.Traced.order_sum);
  set "stage.apply_ticks_mean" (mean on.Traced.apply_sum);
  {
    errors = List.rev !errors;
    attempted = spec.W.ops * ((if sharded then 2 else 1) + (2 * List.length runs));
    chrome =
      Traced.chrome_json rc ~root:workload ~start:on.Traced.start ~stop:on.Traced.stop;
    t_lines =
      [
        Printf.sprintf "%s seed=%d: untraced %.3f s, %d traced pairs, traced %.3f s vs %.3f s"
          workload seed (secs outside_ns) (List.length runs) (median ons /. 1e9)
          (median offs /. 1e9);
      ];
  }

let trace_sweep ~smoke ~seed ~seconds set =
  let t_start = now () in
  let prop = Property.theorem4 () in
  let cases = sweep_cases ~smoke seed in
  let ncases = Array.length cases in
  let domains = max_domains () in
  let (st, _), d_ns, g0, g1 = timed_gc (fun () -> E.run ~domains prop cases) in
  let (st1, _), d1_ns = timed (fun () -> E.run ~domains:1 prop cases) in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let digest (s : E.stats) =
    sweep_digest ~violations:(List.length s.E.violations) ~distinct:s.E.distinct
      ~states:s.E.states
  in
  if st.E.violations <> [] then fail "theorem4: %s" (digest st);
  if digest st1 <> digest st then
    fail "Explore at d1 (%s) and d%d (%s) disagree" (digest st1) domains (digest st);
  (match pinned "check_sweep" ~seed with
  | Some p when (not smoke) && p <> digest st -> fail "sweep %s, recorded %s" (digest st) p
  | _ -> ());
  let runs =
    pairs ~t_start ~seconds (fun () ->
        let off = Traced.sweep (Traced.create ~armed:false) prop cases in
        let rc = Traced.create ~armed:true in
        let on = Traced.sweep rc prop cases in
        List.iter
          (fun (s : Traced.sweep) ->
            let d =
              sweep_digest ~violations:s.Traced.violations ~distinct:s.Traced.distinct
                ~states:s.Traced.states
            in
            if d <> digest st then fail "traced sweep %s differs from Explore's %s" d (digest st))
          [ off; on ];
        (off, (rc, on)))
  in
  let wall (s : Traced.sweep) = float_of_int (s.sweep_stop - s.sweep_start) in
  let offs = List.map (fun (off, _) -> wall off) runs in
  let ons = List.map (fun (_, (_, on)) -> wall on) runs in
  let rc, on = snd (List.hd runs) in
  let pct layer = 100. *. ratio (float_of_int rc.Traced.ns.(layer)) (wall on) in
  set_gc set ~items:ncases g0 g1;
  set "traced_wall_ms" (wall on /. 1e6);
  set "trace_overhead_pct" (overhead_pct offs ons);
  set "property.run.pct" (pct Traced.prop_run);
  set "property.verdict.pct" (pct Traced.prop_verdict);
  set "property.verdict.calls" (float_of_int rc.Traced.calls.(Traced.prop_verdict));
  set "property.states_per_case" (ratio (float_of_int on.Traced.states) (float_of_int ncases));
  (* Explore's own cost: its one-domain wall over the bare traced loop. *)
  set "explore.self_pct" (100. *. ratio (float_of_int d1_ns -. median offs) (float_of_int d1_ns));
  set "explore.dedup_rate" (E.dedup_rate st);
  Array.iteri
    (fun i (d : E.domain_stat) ->
      if i < 2 then
        set (Printf.sprintf "explore.utilization.d%d" i) (ratio d.E.d_busy st.E.elapsed))
    st.E.per_domain;
  set "explore.parallel_efficiency"
    (ratio (float_of_int d1_ns) (float_of_int d_ns) /. float_of_int domains);
  {
    errors = List.rev !errors;
    attempted = ncases * (2 + (2 * List.length runs));
    chrome =
      Traced.chrome_json rc ~root:"check_sweep" ~start:on.Traced.sweep_start
        ~stop:on.Traced.sweep_stop;
    t_lines =
      [
        Printf.sprintf "check_sweep seed=%d: Explore d%d %.3f s, d1 %.3f s, %d traced pairs"
          seed domains (secs d_ns) (secs d1_ns) (List.length runs);
      ];
  }

let trace ~smoke ~seed ~seconds workload =
  let table, set = layer_table () in
  let t =
    if workload = "check_sweep" then trace_sweep ~smoke ~seed ~seconds set
    else trace_tower ~smoke ~seed ~seconds workload set
  in
  (* Any failed check means the traced run measured something else, so
     every call in it counts as failed. *)
  let attempted = t.attempted in
  let failed = if t.errors = [] then 0 else attempted in
  (* Parsing the trace back is the check that it is well-formed. *)
  let trace_ok = Result.is_ok (J.of_string t.chrome) in
  let lines =
    if smoke then t.t_lines
    else begin
      let dir = Filename.concat "benchmark" "out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let file = Filename.concat dir (Printf.sprintf "trace_%s.json" workload) in
      Out_channel.with_open_bin file (fun oc -> output_string oc t.chrome);
      t.t_lines @ [ "  spans written to " ^ file ]
    end
  in
  {
    correct = failed = 0 && trace_ok;
    attempted;
    failed;
    metrics = List.map (fun (m : Spec.metric) -> (m, Hashtbl.find table m.name)) Spec.per_layer;
    lines =
      lines
      @ List.map (fun e -> "  FAILED: " ^ e) t.errors
      @ if trace_ok then [] else [ "  FAILED: the Chrome trace is not valid JSON" ];
    record = None;
  }

(* --- output --- *)

let final_line r =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool r.correct);
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun ((m : Spec.metric), v) ->
                  (m.name, J.Obj [ ("value", J.Float v); ("unit", J.String m.unit) ]))
                r.metrics) );
       ])

let print_result r =
  List.iter print_endline r.lines;
  List.iter
    (fun ((m : Spec.metric), v) -> Printf.printf "  %-36s %16.6g %s\n" m.name v m.unit)
    r.metrics;
  Option.iter (fun j -> print_endline ("record " ^ J.to_string j)) r.record;
  print_endline (final_line r);
  if r.correct then 0 else 1

(* [spawn args] runs this executable with [args] in a child process,
   copies its output, and returns its exit code and its record line. *)
let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let record = ref None in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       if String.starts_with ~prefix:"record " line then
         record := Some (String.sub line 7 (String.length line - 7))
     done
   with End_of_file -> ());
  let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> 1 in
  (code, !record)

(* --- agree --- *)

let agree file_a file_b =
  let load file =
    match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Ok doc ->
      List.filter_map
        (fun r -> Option.map (fun w -> (w, r)) (Option.bind (J.member "workload" r) J.to_string_opt))
        (Option.value ~default:[] (Option.bind (J.member "workloads" doc) J.to_list_opt))
    | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  in
  let a = load file_a and b = load file_b in
  let num path j =
    List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path
    |> fun v -> Option.bind v J.to_float_opt |> Option.value ~default:Float.nan
  in
  let str k j = Option.value ~default:"" (Option.bind (J.member k j) J.to_string_opt) in
  let outside = ref 0 in
  Printf.printf "%-14s %-14s %14s %14s %8s %8s  %s\n" "workload" "metric" "A median" "B median"
    "delta" "spread" "verdict";
  List.iter
    (fun w ->
      match (List.assoc_opt w a, List.assoc_opt w b) with
      | Some ra, Some rb ->
        List.iter
          (fun (m : Spec.metric) ->
            let bound = Option.get m.bound in
            let ma = num [ "metrics"; m.name; "median" ] ra
            and mb = num [ "metrics"; m.name; "median" ] rb in
            let iqr r med =
              (num [ "metrics"; m.name; "q3" ] r -. num [ "metrics"; m.name; "q1" ] r) /. med
            in
            let spread = Float.max (iqr ra ma) (iqr rb mb) in
            let samples r = num [ "metrics"; m.name; "n" ] r in
            let delta = (mb -. ma) /. ma in
            (* Quartiles of fewer than 3 samples say nothing of the spread,
               so such a difference beyond the bound stays unresolved. *)
            let verdict =
              if Float.is_nan delta then "outside (missing)"
              else if spread > bound then "unresolved"
              else if Float.abs delta <= bound then "within"
              else if Float.min (samples ra) (samples rb) < 3. then "unresolved"
              else "outside"
            in
            if String.starts_with ~prefix:"outside" verdict then incr outside;
            Printf.printf "%-14s %-14s %14.6g %14.6g %+7.1f%% %7.1f%%  %s (bound %g%%)\n" w
              m.name ma mb (100. *. delta) (100. *. spread) verdict (100. *. bound))
          Spec.end_to_end;
        if num [ "seed" ] ra = num [ "seed" ] rb && str "digest" ra <> str "digest" rb then begin
          incr outside;
          Printf.printf "%-14s outputs differ at one seed: %s vs %s\n" w (str "digest" ra)
            (str "digest" rb)
        end
      | _ ->
        incr outside;
        Printf.printf "%-14s missing from one result set\n" w)
    Spec.workloads;
  if !outside = 0 then 0 else 1

(* --- smoke --- *)

let smoke spec_file =
  let problems = ref (List.map (fun e -> "BENCHMARK.json: " ^ e) (Spec.check_file spec_file)) in
  let t0 = now () in
  List.iter
    (fun w ->
      List.iter
        (fun (mode, r) ->
          Printf.printf "smoke %s %s: %s, %d attempted\n%!" w mode
            (if r.correct then "correct" else "INCORRECT") r.attempted;
          if not r.correct then problems := (w ^ " " ^ mode ^ ": incorrect") :: r.lines @ !problems)
        [
          ("run", measure ~smoke:true ~seed:default_seed ~seconds:0. w);
          ("trace", trace ~smoke:true ~seed:default_seed ~seconds:0. w);
        ])
    Spec.workloads;
  Printf.printf "smoke: %.2f s\n" (secs (now () - t0));
  List.iter prerr_endline (List.rev !problems);
  if !problems = [] then 0 else 1

(* --- command line --- *)

let usage =
  "main.exe run|trace [--workload W] [--seed N] [--seconds S] [--out FILE]\n\
   main.exe --workload W [--seed N] [--seconds S] --trace 0|1\n\
   main.exe agree A.json B.json\n\
   main.exe --smoke [--spec BENCHMARK.json]\n\
   workloads: tower_steady tower_storm tower_sharded check_sweep"

let () =
  let workload = ref None and seed = ref default_seed and seconds = ref 10.
  and traced = ref None and out = ref None and smoke_run = ref false
  and spec_file = ref "BENCHMARK.json" and positional = ref [] in
  let specs =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "W one workload");
      ("--seed", Arg.Set_int seed, "N workload seed (default 101)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure (default 10)");
      ("--trace", Arg.Int (fun t -> traced := Some (t = 1)), "0|1 untraced or traced run");
      ("--out", Arg.String (fun f -> out := Some f), "FILE result set written by run");
      ("--smoke", Arg.Set smoke_run, " every workload at a small size, checked");
      ("--spec", Arg.Set_string spec_file, "FILE BENCHMARK.json for --smoke");
    ]
  in
  let code =
    try
      Arg.parse_argv Sys.argv specs (fun a -> positional := !positional @ [ a ]) usage;
      let one_or_all mode =
        match !workload with
        | Some w when not (List.mem w Spec.workloads) -> raise (Arg.Bad ("unknown workload " ^ w))
        | Some w ->
          print_result
            (if mode = "trace" then trace ~smoke:false ~seed:!seed ~seconds:!seconds w
             else measure ~smoke:false ~seed:!seed ~seconds:!seconds w)
        | None ->
          let runs =
            List.map
              (fun w ->
                spawn
                  [
                    mode; "--workload"; w; "--seed"; string_of_int !seed; "--seconds";
                    string_of_float !seconds;
                  ])
              Spec.workloads
          in
          (match !out with
          | Some file ->
            let records =
              List.filter_map
                (fun (_, r) -> Option.map (fun r -> Result.get_ok (J.of_string r)) r)
                runs
            in
            Out_channel.with_open_bin file (fun oc ->
                output_string oc (J.to_string (J.Obj [ ("workloads", J.List records) ]));
                output_char oc '\n')
          | None -> ());
          if List.for_all (fun (c, _) -> c = 0) runs then 0 else 1
      in
      match (!smoke_run, !positional, !traced) with
      | true, [], _ -> smoke !spec_file
      | false, [ "agree"; a; b ], _ -> agree a b
      | false, [ ("run" | "trace") as mode ], None -> one_or_all mode
      | false, [], Some t -> one_or_all (if t then "trace" else "run")
      | _ -> raise (Arg.Bad "expected run, trace, agree A B, --trace 0|1 or --smoke")
    with
    | Arg.Bad msg | Arg.Help msg | Failure msg | Sys_error msg ->
      prerr_endline msg;
      2
  in
  exit code
