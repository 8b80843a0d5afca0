(* Streaming SLO monitors and the flight recorder (lib/monitor).

   The end-to-end cases replay the serve scenarios: a seeded corruption
   storm against tight budgets must fire alarms and produce a flight
   snapshot whose causal cone contains the triggering event; a clean run
   against the same budgets stays silent; and attaching monitors must
   not perturb the run itself (identical report digest). The unit cases
   pin the pieces those runs rest on: the unboxed ring encoding, the
   budget parser, the heal watchdog's episode logic, and the
   OpenMetrics exposition. *)

open Ftss_obs
open Ftss_monitor
module Workload = Ftss_service.Workload
module Service = Ftss_service.Service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- budget parsing --- *)

let test_budgets_of_string () =
  (match Monitor.budgets_of_string "stab=40,heal=120, p99=800.5 ,drop=0.2,churn=0.05" with
  | Error e -> Alcotest.failf "full spec rejected: %s" e
  | Ok b ->
    check "stab" true (b.Monitor.stab = Some 40);
    check "heal" true (b.Monitor.heal = Some 120);
    check "p99" true (b.Monitor.p99 = Some 800.5);
    check "drop" true (b.Monitor.drop_rate = Some 0.2);
    check "churn" true (b.Monitor.churn = Some 0.05));
  (match Monitor.budgets_of_string "heal=7" with
  | Error e -> Alcotest.failf "partial spec rejected: %s" e
  | Ok b ->
    check "only heal set" true
      (b.Monitor.heal = Some 7 && b.Monitor.stab = None && b.Monitor.p99 = None
     && b.Monitor.drop_rate = None && b.Monitor.churn = None));
  let rejected s = Result.is_error (Monitor.budgets_of_string s) in
  check "unknown key" true (rejected "latency=5");
  check "missing =" true (rejected "stab");
  check "non-integer stab" true (rejected "stab=4.5");
  check "negative heal" true (rejected "heal=-1");
  check "non-numeric p99" true (rejected "p99=fast");
  check "empty spec" true (rejected "");
  check "only commas" true (rejected " , ,")

(* --- flight-recorder ring --- *)

let one_of_each =
  (* Every Event.body constructor once, with distinctive payloads —
     pins the ring's pack/unpack across the whole taxonomy. *)
  [
    Event.Round_begin;
    Event.Round_end;
    Event.Send { src = 3; dst = Some 1 };
    Event.Send { src = 2; dst = None };
    Event.Deliver { src = 1; dst = 4 };
    Event.Drop { src = 0; dst = 2; blame = Some 2 };
    Event.Drop { src = 4; dst = 3; blame = None };
    Event.Crash { pid = 2 };
    Event.Corrupt { pid = 4 };
    Event.Suspect_add { observer = 0; subject = 3 };
    Event.Suspect_remove { observer = 3; subject = 0 };
    Event.Decide { pid = 1; instance = 17; value = 42 };
    Event.Window_open;
    Event.Window_close { opened = 5; measured = 9 };
    Event.Case_start { case = 12345 };
    Event.Case_verdict { case = 12345; ok = true; dedup = false; states = 88 };
    Event.Case_verdict { case = 6; ok = false; dedup = true; states = 3 };
    Event.Coverage { execs = 1000; corpus = 22; points = 640 };
    Event.Submit { pid = 2; ops = 5 };
    Event.Commit { pid = 2; slot = 31; ops = 5 };
    Event.Apply { pid = 3; slot = 31; digest = 987654 };
    Event.Recover { pid = 4; slots = 30 };
  ]

let test_ring_round_trip () =
  let mon = Monitor.create ~n:5 Monitor.no_budgets in
  let evs = List.mapi (fun i body -> Event.make ~time:(100 + i) body) one_of_each in
  List.iter (Monitor.subscriber mon) evs;
  check_int "all pushed" (List.length evs) (Monitor.ring_seen mon);
  let got = Monitor.ring_events mon in
  check_int "all decoded" (List.length evs) (List.length got);
  List.iter2
    (fun (want : Event.t) (have : Event.t) ->
      if have <> want then
        Alcotest.failf "ring round-trip: wanted %s, got %s"
          (Json.to_string (Event.to_json want))
          (Json.to_string (Event.to_json have)))
    evs got

let test_ring_eviction () =
  let mon = Monitor.create ~ring_capacity:8 ~n:3 Monitor.no_budgets in
  for i = 1 to 20 do
    Monitor.subscriber mon (Event.make ~time:i (Event.Submit { pid = 0; ops = i }))
  done;
  check_int "seen counts evictions" 20 (Monitor.ring_seen mon);
  let got = Monitor.ring_events mon in
  check_int "bounded by capacity" 8 (List.length got);
  let times = List.map (fun (e : Event.t) -> e.Event.time) got in
  check "keeps the newest, oldest first" true
    (times = [ 13; 14; 15; 16; 17; 18; 19; 20 ]);
  Alcotest.check_raises "capacity validated"
    (Invalid_argument "Monitor.create: ring_capacity < 1") (fun () ->
      ignore (Monitor.create ~ring_capacity:0 ~n:3 Monitor.no_budgets))

(* The OpenMetrics exposition, as [serve --prom-out] writes it. *)
let openmetrics mon =
  let path = Filename.temp_file "ftss_monitor" ".prom" in
  Monitor.write_openmetrics mon path;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

(* The value of the exposition's sample [name]. *)
let sample mon name =
  let prefix = name ^ " " in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' (openmetrics mon))
  with
  | Some line ->
    float_of_string (String.sub line (String.length prefix) (String.length line - String.length prefix))
  | None -> Alcotest.failf "no %s sample" name

(* The alarms the monitor keeps, oldest first, as [watch --json] reports
   them: (monitor, time, detail). *)
let kept_alarms mon =
  let field k j = Option.get (Json.member k j) in
  match Json.to_list_opt (field "alarms" (Monitor.dashboard_json mon)) with
  | None -> Alcotest.fail "dashboard alarms is not a list"
  | Some l ->
    List.map
      (fun a ->
        ( Option.get (Json.to_string_opt (field "monitor" a)),
          Option.get (Json.to_int_opt (field "time" a)),
          Option.get (Json.to_string_opt (field "detail" a)) ))
      l

(* Every alarm the monitor raises, oldest first. *)
let collect_alarms mon =
  let fired = ref [] in
  Monitor.set_on_alarm mon (fun _ a -> fired := a :: !fired);
  fun () -> List.rev !fired

(* --- heal watchdog episode logic, driven synthetically --- *)

let heal_budgets = { Monitor.no_budgets with Monitor.heal = Some 5 }

let test_heal_watchdog_on_apply () =
  (* Late heal: the Apply that closes the episode is past budget. *)
  let mon = Monitor.create ~n:3 heal_budgets in
  let alarms = collect_alarms mon in
  let feed t body = Monitor.subscriber mon (Event.make ~time:t body) in
  feed 10 (Event.Corrupt { pid = 1 });
  feed 12 (Event.Apply { pid = 0; slot = 0; digest = 1 });
  check_int "clean replica's apply is no heal" 0 (Monitor.alarm_count mon);
  feed 13 (Event.Apply { pid = 1; slot = 0; digest = 1 });
  check_int "gap 3 <= budget 5: no alarm" 0 (Monitor.alarm_count mon);
  check "heal recorded" true (sample mon "ftss_heal_worst_ticks" = 3.);
  feed 20 (Event.Corrupt { pid = 1 });
  feed 30 (Event.Apply { pid = 1; slot = 1; digest = 2 });
  check_int "gap 10 > budget 5: alarm" 1 (Monitor.alarm_count mon);
  (match alarms () with
  | [ a ] ->
    check_string "heal monitor" "heal" a.Monitor.monitor;
    check_int "alarm time" 30 a.Monitor.time
  | l -> Alcotest.failf "expected 1 alarm, got %d" (List.length l));
  check "worst heal tracked" true (sample mon "ftss_heal_worst_ticks" = 10.)

let test_heal_watchdog_overdue_and_crash () =
  (* Overdue without any Apply: the lazy check against event time fires
     once per episode; a crash closes an episode without alarm. *)
  let mon = Monitor.create ~n:3 heal_budgets in
  let feed t body = Monitor.subscriber mon (Event.make ~time:t body) in
  feed 10 (Event.Corrupt { pid = 1 });
  feed 14 Event.Round_begin;
  check_int "within budget: silent" 0 (Monitor.alarm_count mon);
  feed 16 Event.Round_begin;
  check_int "overdue alarm from unrelated event" 1 (Monitor.alarm_count mon);
  feed 40 Event.Round_begin;
  check_int "one alarm per episode" 1 (Monitor.alarm_count mon);
  feed 50 (Event.Corrupt { pid = 2 });
  feed 52 (Event.Crash { pid = 2 });
  feed 80 Event.Round_begin;
  check_int "crash closes the episode silently" 1 (Monitor.alarm_count mon);
  (* finalize sweeps replicas still dirty at the horizon. *)
  let mon2 = Monitor.create ~n:3 heal_budgets in
  Monitor.subscriber mon2 (Event.make ~time:10 (Event.Corrupt { pid = 0 }));
  Monitor.finalize mon2 ~end_time:100;
  check_int "finalize flags the unhealed replica" 1 (Monitor.alarm_count mon2)

let test_alarm_counts_past_the_kept_list () =
  (* Past the 64 kept alarms, the per-monitor counts the dashboard and
     OpenMetrics report stay exact. *)
  let mon = Monitor.create ~n:3 { Monitor.no_budgets with Monitor.heal = Some 0 } in
  let feed t body = Monitor.subscriber mon (Event.make ~time:t body) in
  for i = 0 to 99 do
    feed (10 * i) (Event.Corrupt { pid = 1 });
    feed ((10 * i) + 1) (Event.Apply { pid = 1; slot = i; digest = i })
  done;
  check_int "one alarm per episode" 100 (Monitor.alarm_count mon);
  let kept = kept_alarms mon in
  check_int "alarm list stays capped" 64 (List.length kept);
  (match kept with
  | (m, time, _) :: _ ->
    check_string "oldest kept is a heal alarm" "heal" m;
    check_int "the oldest alarms are the ones kept" 1 time
  | [] -> Alcotest.fail "no kept alarms");
  check_int "per-monitor counts sum to the total" (Monitor.alarm_count mon)
    (List.fold_left (fun acc (s : Monitor.status) -> acc + s.Monitor.firing) 0
       (Monitor.statuses mon));
  let om = openmetrics mon in
  check "openmetrics heal count is exact" true
    (List.mem "ftss_monitor_alarms_total{monitor=\"heal\"} 100"
       (String.split_on_char '\n' om))

let test_interval_hook () =
  let mon = Monitor.create ~n:3 Monitor.no_budgets in
  let fires = ref [] in
  Monitor.set_interval mon ~every:10 (fun _ ~time -> fires := time :: !fires);
  List.iter
    (fun t -> Monitor.subscriber mon (Event.make ~time:t Event.Round_begin))
    [ 1; 9; 10; 11; 25; 26; 61 ];
  (* Fires on the first event at or past each multiple of [every];
     skipped multiples collapse into the next event. *)
  check "fired at cadence" true (List.rev !fires = [ 10; 25; 61 ]);
  Alcotest.check_raises "cadence validated"
    (Invalid_argument "Monitor.set_interval: every < 1") (fun () ->
      Monitor.set_interval mon ~every:0 (fun _ ~time:_ -> ()))

(* --- end-to-end: seeded storm vs. tight budgets --- *)

let storm_spec =
  {
    Workload.default_spec with
    Workload.ops = 4_000;
    sessions = 50_000;
    keys = 512;
    window = 1_500;
    seed = 5;
  }

let storm_params n =
  {
    (Service.default_params ~n ~seed:9) with
    Service.faults =
      { Service.no_faults with Service.storms = [ (700, 2) ] };
  }

let run_armed ?on_alarm n budgets =
  let wl = Workload.create ~n storm_spec in
  let obs = Obs.create ~record:false ~threadsafe:false () in
  let mon = Monitor.create ~n budgets in
  (match on_alarm with None -> () | Some f -> Monitor.set_on_alarm mon f);
  Monitor.attach mon obs;
  let r = Service.run ~obs ~wl (storm_params n) in
  Monitor.finalize mon ~end_time:r.Service.end_time;
  (r, mon)

(* Zero budgets: any measurable disorder — a repair at positive distance
   from its fault, any corruption-to-apply gap — is a violation. The
   storm guarantees both, whatever the recovery speed. *)
let zero_budgets = { Monitor.no_budgets with Monitor.stab = Some 0; heal = Some 0 }

let test_storm_fires_alarm_with_snapshot () =
  let n = 5 in
  (* Snapshot the flight recorder inside the alarm hook, as serve does:
     by the end of the run the triggering event has long been evicted. *)
  let prefix = Filename.concat (Filename.get_temp_dir_name ()) "ftss_test_flight" in
  let first_seen = ref None in
  let snapshot = ref None in
  let r, mon =
    run_armed n zero_budgets ~on_alarm:(fun mon a ->
        if !first_seen = None then begin
          first_seen := Some a;
          snapshot := Some (Recorder.snapshot mon a ~prefix)
        end)
  in
  check "run still converged" true r.Service.converged;
  check "alarms fired" true (Monitor.alarm_count mon > 0);
  (match (!first_seen, kept_alarms mon) with
  | Some a, (m, time, detail) :: _ ->
    check "hook saw the first alarm" true
      (a.Monitor.monitor = m && a.Monitor.time = time && a.Monitor.detail = detail)
  | None, _ -> Alcotest.fail "hook saw no alarm"
  | _, [] -> Alcotest.fail "no kept alarms");
  check "stabilization breached the budget" true
    (List.exists
       (fun (s : Monitor.status) -> s.Monitor.name = "stab" && s.Monitor.firing > 0)
       (Monitor.statuses mon));
  check "disorder was measured" true (sample mon "ftss_stabilization_d_ticks" > 0.);
  let snap = match !snapshot with Some s -> s | None -> Alcotest.fail "no snapshot" in
  check "ring dumped" true (snap.Recorder.events > 0);
  check "trigger found in ring" true snap.Recorder.target_found;
  check "cone is non-empty" true (snap.Recorder.cone > 0);
  let slurp path =
    let ic = open_in path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  in
  let jsonl = slurp snap.Recorder.jsonl_path in
  check "jsonl non-empty" true (String.length jsonl > 0);
  (* Every line of the snapshot decodes back to an event. *)
  String.split_on_char '\n' jsonl
  |> List.filter (fun l -> l <> "")
  |> List.iteri (fun i line ->
         match Json.of_string line with
         | Error e -> Alcotest.failf "snapshot line %d unparseable: %s" i e
         | Ok j ->
           if Event.of_json j = None then
             Alcotest.failf "snapshot line %d not an event" i);
  let dot = slurp snap.Recorder.dot_path in
  check "dot renders a digraph" true
    (String.length dot >= 7 && String.sub dot 0 7 = "digraph");
  Sys.remove snap.Recorder.jsonl_path;
  Sys.remove snap.Recorder.dot_path

let test_clean_run_is_silent () =
  let n = 5 in
  let wl = Workload.create ~n storm_spec in
  let obs = Obs.create ~record:false ~threadsafe:false () in
  let mon = Monitor.create ~n zero_budgets in
  Monitor.attach mon obs;
  let r = Service.run ~obs ~wl (Service.default_params ~n ~seed:9) in
  Monitor.finalize mon ~end_time:r.Service.end_time;
  check "converged" true r.Service.converged;
  check_int "fault-free run fires nothing" 0 (Monitor.alarm_count mon);
  check "no stabilization measured" true (sample mon "ftss_stabilization_d_ticks" = 0.);
  check "commits were observed" true (sample mon "ftss_commit_latency_ticks_count" > 0.)

let test_monitoring_does_not_perturb_run () =
  (* Same seeds, with and without the armed hub: identical digest. *)
  let n = 5 in
  let wl = Workload.create ~n storm_spec in
  let bare = Service.run ~wl (storm_params n) in
  let armed, mon = run_armed n zero_budgets in
  check_int "identical report digest"
    (Service.report_digest bare)
    (Service.report_digest armed);
  check "monitor saw the whole run" true
    (Monitor.ring_seen mon > armed.Service.unique_ops)

(* --- rendering --- *)

let test_statuses_and_openmetrics () =
  let _, mon = run_armed 5 zero_budgets in
  let sts = Monitor.statuses mon in
  check_int "five monitors" 5 (List.length sts);
  List.iter
    (fun (s : Monitor.status) ->
      check (s.Monitor.name ^ " armed flag") true
        (s.Monitor.armed = (s.Monitor.name = "stab" || s.Monitor.name = "heal")))
    sts;
  let stab = List.find (fun s -> s.Monitor.name = "stab") sts in
  check "stab fired" true (stab.Monitor.firing > 0);
  let om = openmetrics mon in
  let ends_with suffix s =
    let ls = String.length suffix and l = String.length s in
    l >= ls && String.sub s (l - ls) ls = suffix
  in
  check "openmetrics terminated" true (ends_with "# EOF\n" om);
  let contains hay sub =
    let lh = String.length hay and ls = String.length sub in
    let rec go i = i + ls <= lh && (String.sub hay i ls = sub || go (i + 1)) in
    go 0
  in
  check "alarm counter exposed" true
    (contains om "ftss_monitor_alarms_total{monitor=\"stab\"}");
  check "latency summary exposed" true
    (contains om "ftss_commit_latency_ticks{quantile=\"0.99\"}");
  check "dashboard names the alarm" true
    (contains (Monitor.dashboard_string mon) "ALARM")

let suite =
  [
    ( "monitor",
      [
        Alcotest.test_case "budget spec parsing" `Quick test_budgets_of_string;
        Alcotest.test_case "ring round-trips every event kind" `Quick
          test_ring_round_trip;
        Alcotest.test_case "ring evicts oldest first" `Quick test_ring_eviction;
        Alcotest.test_case "heal watchdog on apply" `Quick test_heal_watchdog_on_apply;
        Alcotest.test_case "heal watchdog overdue + crash" `Quick
          test_heal_watchdog_overdue_and_crash;
        Alcotest.test_case "alarm counts past the kept list" `Quick
          test_alarm_counts_past_the_kept_list;
        Alcotest.test_case "interval hook cadence" `Quick test_interval_hook;
        Alcotest.test_case "storm fires alarm with flight snapshot" `Quick
          test_storm_fires_alarm_with_snapshot;
        Alcotest.test_case "clean run is silent" `Quick test_clean_run_is_silent;
        Alcotest.test_case "monitoring does not perturb the run" `Quick
          test_monitoring_does_not_perturb_run;
        Alcotest.test_case "statuses and openmetrics" `Quick
          test_statuses_and_openmetrics;
      ] );
  ]
