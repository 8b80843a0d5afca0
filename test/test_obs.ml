(* Unit tests for the observability layer: JSON encode/parse round-trips,
   the event taxonomy, sinks, the metrics registry, the hub, the trace
   summarizer, and the instrumentation of the runner / simulator /
   explorer (including that traced runs match their untraced reports). *)

open Ftss_util
open Ftss_sync
open Ftss_obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Json --- *)

let test_json_round_trip () =
  let docs =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.String "plain";
      Json.String "esc \" \\ \n \t \x01 中";
      Json.List [ Json.Int 1; Json.Null; Json.String "x" ];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun doc ->
      match Json.of_string (Json.to_string doc) with
      | Ok doc' -> check "round-trips" true (doc = doc')
      | Error msg -> Alcotest.failf "parse error: %s" msg)
    docs

let test_json_rejects_garbage () =
  List.iter
    (fun s -> check (Printf.sprintf "rejects %S" s) true (Result.is_error (Json.of_string s)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "nul"; "\"unterminated" ]

let test_json_accessors () =
  match Json.of_string {|{"i":3,"f":2.5,"s":"v","b":true,"l":[1]}|} with
  | Error msg -> Alcotest.failf "parse error: %s" msg
  | Ok doc ->
    check "int member" true (Option.bind (Json.member "i" doc) Json.to_int_opt = Some 3);
    check "float member" true
      (Option.bind (Json.member "f" doc) Json.to_float_opt = Some 2.5);
    check "int as float" true
      (Option.bind (Json.member "i" doc) Json.to_float_opt = Some 3.0);
    check "missing member" true (Json.member "zzz" doc = None)

(* --- Event --- *)

let all_events =
  [
    Event.make ~time:1 Event.Round_begin;
    Event.make ~time:1 Event.Round_end;
    Event.make ~time:2 (Event.Send { src = 0; dst = None });
    Event.make ~time:2 (Event.Send { src = 0; dst = Some 1 });
    Event.make ~time:3 (Event.Deliver { src = 0; dst = 1 });
    Event.make ~time:3 (Event.Drop { src = 0; dst = 1; blame = Some 0 });
    Event.make ~time:3 (Event.Drop { src = 1; dst = 2; blame = None });
    Event.make ~time:4 (Event.Crash { pid = 2 });
    Event.make ~time:0 (Event.Corrupt { pid = 1 });
    Event.make ~time:5 (Event.Suspect_add { observer = 0; subject = 2 });
    Event.make ~time:6 (Event.Suspect_remove { observer = 0; subject = 2 });
    Event.make ~time:7 (Event.Decide { pid = 0; instance = 3; value = 55 });
    Event.make ~time:8 Event.Window_open;
    Event.make ~time:9 (Event.Window_close { opened = 8; measured = 2 });
    Event.make ~time:0 (Event.Case_start { case = 7 });
    Event.make ~time:0
      (Event.Case_verdict { case = 7; ok = true; dedup = false; states = 12 });
    Event.make ~time:0 (Event.Coverage { execs = 100; corpus = 9; points = 42 });
    Event.make ~time:10 (Event.Submit { pid = 0; ops = 5 });
    Event.make ~time:11 (Event.Commit { pid = 1; slot = 0; ops = 3 });
    Event.make ~time:12 (Event.Apply { pid = 1; slot = 0; digest = 99 });
    Event.make ~time:13 (Event.Recover { pid = 2; slots = 4 });
  ]

let test_event_round_trip () =
  List.iter
    (fun ev ->
      match Event.of_json (Event.to_json ev) with
      | Some ev' -> check (Event.kind ev ^ " round-trips") true (ev = ev')
      | None -> Alcotest.failf "%s did not decode" (Event.kind ev))
    all_events;
  (* Every declared kind is exercised above. *)
  let seen = List.sort_uniq compare (List.map Event.kind all_events) in
  check_int "all kinds covered" (List.length Event.kinds) (List.length seen)

let test_event_rejects_unknown () =
  check "unknown tag" true
    (Event.of_json (Json.Obj [ ("t", Json.Int 0); ("ev", Json.String "warp") ]) = None);
  check "missing field" true
    (Event.of_json (Json.Obj [ ("t", Json.Int 0); ("ev", Json.String "crash") ]) = None)

(* --- Sinks --- *)

(* A hub whose one sink collects every event; the getter returns them
   oldest first. *)
let collecting () =
  let evs = ref [] in
  let obs = Obs.create () in
  Obs.add_sink obs (Sink.make ~emit:(fun ev -> evs := ev :: !evs) ~close:ignore);
  (obs, fun () -> List.rev !evs)

let test_jsonl_and_load_round_trip () =
  let path = Filename.temp_file "ftss_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Sink.jsonl_file path in
      List.iter sink.Sink.emit all_events;
      sink.Sink.close ();
      match Trace_summary.load path with
      | Error msg -> Alcotest.failf "load: %s" msg
      | Ok t ->
        check_int "every event loaded" (List.length all_events)
          (List.length (Trace_summary.events t));
        check "events identical" true (Trace_summary.events t = all_events))

(* The golden fixture pins the wire format: every event kind exactly as
   [Sink.jsonl_file] writes it (its first [List.length all_events] lines),
   then the same bodies as traces carried them while events held causal
   stamps (an [eid] and a [vc] field per line). A diff here means the
   JSONL encoding changed and every stored trace in the wild silently
   re-reads differently — bump deliberately, never by accident. *)
let golden_path () =
  if Sys.file_exists "golden_events.jsonl" then "golden_events.jsonl"
  else Filename.concat "test" "golden_events.jsonl"

let test_golden_jsonl_writer () =
  let ic = open_in (golden_path ()) in
  let fixture =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec lines acc =
          match input_line ic with
          | line -> lines (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        lines [])
  in
  let actual = List.map (fun ev -> Json.to_string (Event.to_json ev)) all_events in
  check_int "fixture line count" (2 * List.length actual) (List.length fixture);
  List.iteri
    (fun i a -> check_string (Printf.sprintf "line %d" (i + 1)) (List.nth fixture i) a)
    actual

(* The reader decodes every fixture line, and a legacy stamped line to
   the same event as its unstamped twin: the stamp fields are ignored. *)
let test_golden_jsonl_reader () =
  match Trace_summary.load (golden_path ()) with
  | Error msg -> Alcotest.failf "golden fixture unreadable: %s" msg
  | Ok t ->
    check_int "every fixture line decodes" (2 * List.length all_events)
      (List.length (Trace_summary.events t));
    check "plain and legacy stamped lines decode to the source events" true
      (Trace_summary.events t = all_events @ all_events)

(* The [ftss trace] report of an event list, as lines: the events go
   through a JSON Lines file and back, as [ftss trace] reads them. *)
let report_lines evs =
  let path = Filename.temp_file "ftss_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Sink.jsonl_file path in
      List.iter sink.Sink.emit evs;
      sink.Sink.close ();
      match Trace_summary.load path with
      | Error msg -> Alcotest.failf "load: %s" msg
      | Ok t -> String.split_on_char '\n' (Format.asprintf "%a" Trace_summary.pp t))

let has_line lines line = check (Printf.sprintf "report line %S" line) true (List.mem line lines)

let has_no_line_starting lines prefix =
  check ("no report line " ^ prefix) false (List.exists (String.starts_with ~prefix) lines)

let test_coverage_summary () =
  let cov ~time execs corpus points =
    Event.make ~time (Event.Coverage { execs; corpus; points })
  in
  let lines =
    report_lines
      [
        Event.make ~time:0 Event.Round_begin;
        cov ~time:1 10 2 5;
        cov ~time:2 50 3 8;
        cov ~time:3 95 3 7;
        cov ~time:3 100 3 8;
        Event.make ~time:3 Event.Round_end;
      ]
  in
  (* The census shows the final sample, so [ftss trace] surfaces fuzzing
     runs, and the growth curve folded into ten cells by execution
     count: 95 and 100 share the last cell, and the later sample wins. *)
  has_line lines "coverage: 100 execs, corpus 3, 8 points";
  has_line lines "coverage growth (execs: points):";
  List.iter (has_line lines) [ "        10: 5"; "        50: 8"; "       100: 8" ];
  check "one line per non-empty cell" false (List.mem "        95: 7" lines);
  has_no_line_starting (report_lines [ Event.make ~time:0 Event.Round_begin ]) "coverage"

let test_load_reports_bad_line () =
  let path = Filename.temp_file "ftss_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"t\":0,\"ev\":\"round_begin\"}\nnot json\n";
      close_out oc;
      match Trace_summary.load path with
      | Ok _ -> Alcotest.fail "malformed line accepted"
      | Error msg ->
        check "error names line 2" true
          (let rec contains i =
             i + 6 <= String.length msg
             && (String.sub msg i 6 = "line 2" || contains (i + 1))
           in
           contains 0))

let test_console_filter () =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  let sink = Sink.console ~kinds:[ "crash" ] ppf in
  List.iter sink.Sink.emit all_events;
  sink.Sink.close ();
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  check "crash printed" true
    (List.exists (fun l -> l <> "") (String.split_on_char '\n' out));
  check "everything else filtered" false
    (let rec contains i =
       i + 6 <= String.length out && (String.sub out i 6 = "decide" || contains (i + 1))
     in
     contains 0)

(* --- Metrics --- *)

(* A registry's instruments, read back through its JSON snapshot. *)
let exported m section name =
  Option.bind (Json.member section (Metrics.to_json m)) (Json.member name)

let counter_value m name = Option.bind (exported m "counters" name) Json.to_int_opt
let gauge_value m name = Option.bind (exported m "gauges" name) Json.to_float_opt

(* A log-bucket histogram in a registry of its own, so its exact minimum
   is read as production reads it: from the JSON export. *)
let registered_lhist () =
  let m = Metrics.create () in
  (m, Metrics.lhist m "h")

(* The exported minimum; [None] while the histogram is empty, which
   exports only its count. *)
let exported_min m =
  Option.bind (exported m "histograms" "h") (fun h ->
      Option.bind (Json.member "min" h) Json.to_float_opt)

let test_metrics_counters_and_gauges () =
  let m = Metrics.create () in
  check "fresh registry exports nothing" true
    (Metrics.to_json m
    = Json.Obj [ ("counters", Json.Obj []); ("gauges", Json.Obj []); ("histograms", Json.Obj []) ]);
  let c = Metrics.counter m "hits" in
  Metrics.inc c;
  Metrics.add c 4;
  check "counter accumulates" true (counter_value m "hits" = Some 5);
  Metrics.inc (Metrics.counter m "hits");
  check "get-or-create returns same instrument" true (counter_value m "hits" = Some 6);
  Metrics.set (Metrics.gauge m "level") 2.5;
  check "gauge holds last value" true (gauge_value m "level" = Some 2.5)

let test_lhist_percentiles_bounded_error () =
  let m, h = registered_lhist () in
  for i = 1 to 10_000 do
    Metrics.lobserve h (float_of_int i)
  done;
  check_int "count exact" 10_000 (Metrics.lhist_count h);
  check "sum exact" true (Metrics.lhist_sum h = 50_005_000.0);
  check "min exact" true (exported_min m = Some 1.0);
  check "max exact" true (Metrics.lhist_max h = 10_000.0);
  (* Every estimate within the documented relative-error bound of the
     exact nearest-rank answer — on a stream far past any reservoir. *)
  List.iter
    (fun p ->
      let exact = float_of_int 10_000 *. p /. 100.0 in
      let est = Metrics.lpercentile h p in
      let rel = Float.abs (est -. exact) /. exact in
      if rel > Metrics.lhist_error then
        Alcotest.failf "p%g: estimate %g vs exact %g (rel err %.3f > %.3f)" p
          est exact rel Metrics.lhist_error)
    [ 50.0; 90.0; 99.0; 99.9 ];
  check "p100 clamps to exact max" true (Metrics.lpercentile h 100.0 = 10_000.0);
  check "empty lhist is nan" true
    (Float.is_nan (Metrics.lpercentile (Metrics.lhist_create ()) 50.0));
  Alcotest.check_raises "percentile range checked"
    (Invalid_argument "Metrics.lpercentile: p outside [0, 100]") (fun () ->
      ignore (Metrics.lpercentile h 101.0))

let test_lhist_no_reservoir_bias () =
  (* Every sample lands in a bucket: feed small values first, then a
     late shift to large ones, and the tail sees the shift. *)
  let m = Metrics.create () in
  let l = Metrics.lhist m "l" in
  for _ = 1 to 4096 do
    Metrics.lobserve l 1.0
  done;
  for _ = 1 to 9 * 4096 do
    Metrics.lobserve l 1000.0
  done;
  check "lhist tracks the shift" true (Metrics.lpercentile l 99.0 > 900.0);
  (* Registry export: the summary fields plus the kind tag. *)
  let doc = Metrics.to_json m in
  let field h name = Option.bind (Json.member name h) Json.to_float_opt in
  let lh =
    match Option.bind (Json.member "histograms" doc) (Json.member "l") with
    | Some h -> h
    | None -> Alcotest.fail "lhist missing from histograms export"
  in
  check "kind tagged" true
    (Option.bind (Json.member "kind" lh) Json.to_string_opt = Some "logbucket");
  check "count exported" true
    (Option.bind (Json.member "count" lh) Json.to_int_opt
    = Some (10 * 4096));
  List.iter
    (fun name -> check (name ^ " exported") true (field lh name <> None))
    [ "sum"; "min"; "max"; "mean"; "p50"; "p95"; "p99"; "p999" ]

(* Integer samples counted per value and recorded with [lobserve_n] give
   the histogram one [lobserve] per sample gives: count, exact sum,
   extremes and every percentile. A zero count records nothing. *)
let test_lobserve_n_matches_lobserve () =
  let m_one, one = registered_lhist () and m_counted, counted = registered_lhist () in
  let counts = Array.make 5_000 0 in
  let rng = ref 12345 in
  for _ = 1 to 20_000 do
    rng := (!rng * 48271) mod 0x7fffffff;
    let v = !rng mod 5_000 / (1 + (!rng mod 7)) in
    Metrics.lobserve one (float_of_int v);
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri (fun v k -> Metrics.lobserve_n counted (float_of_int v) k) counts;
  check_int "count" (Metrics.lhist_count one) (Metrics.lhist_count counted);
  check "sum" true (Metrics.lhist_sum one = Metrics.lhist_sum counted);
  check "min" true (exported_min m_one = exported_min m_counted);
  check "max" true (Metrics.lhist_max one = Metrics.lhist_max counted);
  List.iter
    (fun p ->
      check (Printf.sprintf "p%g" p) true
        (Metrics.lpercentile one p = Metrics.lpercentile counted p))
    (99.9 :: List.init 101 float_of_int);
  let m_empty, empty = registered_lhist () in
  Metrics.lobserve_n empty 3.0 0;
  check_int "zero count records nothing" 0 (Metrics.lhist_count empty);
  check "zero count exports no min" true (exported_min m_empty = None)

let test_lhist_merge_edges () =
  (* empty ⊎ empty stays empty (and nan extremes stay nan, not 0). *)
  let m_a, a = registered_lhist () and b = Metrics.lhist_create () in
  Metrics.lhist_merge a b;
  check_int "empty+empty count" 0 (Metrics.lhist_count a);
  check "empty+empty exports no min" true (exported_min m_a = None);
  check "empty+empty max is nan" true (Float.is_nan (Metrics.lhist_max a));
  check "empty+empty p50 is nan" true
    (Float.is_nan (Metrics.lpercentile a 50.0));
  (* empty ⊎ nonempty adopts the source exactly, in both directions. *)
  let src = Metrics.lhist_create () in
  List.iter (Metrics.lobserve src) [ 3.0; 7.0; 11.0 ];
  let m_into, into = registered_lhist () in
  Metrics.lhist_merge into src;
  check_int "empty into adopts count" 3 (Metrics.lhist_count into);
  check "adopts sum" true (Metrics.lhist_sum into = 21.0);
  check "adopts min" true (exported_min m_into = Some 3.0);
  check "adopts max" true (Metrics.lhist_max into = 11.0);
  let m_nonempty, nonempty = registered_lhist () in
  Metrics.lobserve nonempty 5.0;
  Metrics.lhist_merge nonempty (Metrics.lhist_create ());
  check_int "merging empty is identity" 1 (Metrics.lhist_count nonempty);
  check "identity min" true (exported_min m_nonempty = Some 5.0);
  (* single-bucket populations: same value everywhere collapses to one
     bucket; the merge must keep exact extremes and the clamped p50. *)
  let s1 = Metrics.lhist_create () and s2 = Metrics.lhist_create () in
  for _ = 1 to 10 do
    Metrics.lobserve s1 42.0;
    Metrics.lobserve s2 42.0
  done;
  Metrics.lhist_merge s1 s2;
  check_int "single-bucket count adds" 20 (Metrics.lhist_count s1);
  check "single-bucket p50 clamps exact" true
    (Metrics.lpercentile s1 50.0 = 42.0);
  (* from is untouched by the merge. *)
  check_int "source untouched" 10 (Metrics.lhist_count s2);
  (* percentile agreement: a stream split across two shards and merged
     must estimate every percentile identically to the unsplit stream —
     log bucketing makes the merge lossless. *)
  let m_whole, whole = registered_lhist () in
  let m_sh1, sh1 = registered_lhist () and sh2 = Metrics.lhist_create () in
  let rng = ref 9973 in
  for i = 1 to 4_000 do
    rng := (!rng * 48271) mod 0x7fffffff;
    let v = float_of_int (1 + (!rng mod 10_000)) in
    Metrics.lobserve whole v;
    Metrics.lobserve (if i mod 2 = 0 then sh1 else sh2) v
  done;
  Metrics.lhist_merge sh1 sh2;
  check_int "merged count matches" (Metrics.lhist_count whole)
    (Metrics.lhist_count sh1);
  check "merged sum matches" true
    (Metrics.lhist_sum whole = Metrics.lhist_sum sh1);
  check "merged min matches" true
    (exported_min m_whole = exported_min m_sh1);
  check "merged max matches" true
    (Metrics.lhist_max whole = Metrics.lhist_max sh1);
  List.iter
    (fun p ->
      let w = Metrics.lpercentile whole p and m = Metrics.lpercentile sh1 p in
      if w <> m then
        Alcotest.failf "p%g diverges after merge: %g vs %g" p w m)
    [ 0.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]

let test_metrics_record_event_and_json () =
  let m = Metrics.create () in
  List.iter (Metrics.record_event m) all_events;
  let doc = Metrics.to_json m in
  let counter name =
    match Option.bind (Json.member "counters" doc) (Json.member name) with
    | Some j -> Json.to_int_opt j
    | None -> None
  in
  check "messages_sent" true (counter "messages_sent" = Some 2);
  check "messages_dropped" true (counter "messages_dropped" = Some 2);
  check "per-link drop counter" true (counter "link_dropped.0->1" = Some 1);
  check "suspicion churn" true (counter "suspicion_churn" = Some 2);
  check "decisions" true (counter "decisions" = Some 1);
  (* The stabilization histogram was fed by the window close. *)
  let stab =
    Option.bind (Json.member "histograms" doc) (Json.member "stabilization")
  in
  check "stabilization histogram present" true (stab <> None);
  check "measured d recorded" true
    (Option.bind stab (fun h -> Option.bind (Json.member "max" h) Json.to_float_opt)
    = Some 2.0);
  (* The whole snapshot is parseable JSON. *)
  check "snapshot round-trips" true
    (match Json.of_string (Json.to_string doc) with Ok d -> d = doc | Error _ -> false)

(* --- Obs hub --- *)

let test_obs_fan_out_and_suspect_diff () =
  let obs, events = collecting () in
  Obs.suspect_diff obs ~time:9 ~observer:0
    ~before:(Pidset.of_list [ 1 ])
    ~after:(Pidset.of_list [ 2 ]);
  let kinds = List.map Event.kind (events ()) in
  check "one add and one remove" true
    (List.sort compare kinds = [ "suspect_add"; "suspect_remove" ]);
  check "metrics recorded too" true (counter_value (Obs.metrics obs) "suspicion_churn" = Some 2)

(* One dispatch order for every consumer: the event is folded into the
   registry, then handed to the sinks in the order they were added — a
   sink sees the registry already updated. *)
let test_obs_dispatch_order () =
  let obs = Obs.create () in
  let log = ref [] in
  let churn () =
    Option.value ~default:0 (counter_value (Obs.metrics obs) "suspicion_churn")
  in
  let sink name =
    Sink.make ~close:ignore ~emit:(fun (_ : Event.t) ->
        log := (name, churn ()) :: !log)
  in
  Obs.add_sink obs (sink "a");
  Obs.add_sink obs (sink "b");
  Obs.suspect_diff obs ~time:1 ~observer:0 ~before:Pidset.empty
    ~after:(Pidset.of_list [ 1 ]);
  Alcotest.(check (list (pair string int)))
    "recorded, then a before b"
    [ ("a", 1); ("b", 1) ]
    (List.rev !log)

let test_obs_emit_windows () =
  let obs, events = collecting () in
  Obs.emit_windows obs [ ((0, 10), 1); ((12, 30), 3) ];
  let evs = events () in
  check_int "two pairs" 4 (List.length evs);
  let lines = report_lines evs in
  List.iter (has_line lines) [ "  window 0..10: d=1"; "  window 12..30: d=3" ];
  (* The measured stabilization is the max. *)
  has_line lines "measured stabilization: 3"

(* --- Trace_summary analyses --- *)

let test_service_summary () =
  let lines =
    report_lines
      [
        Event.make ~time:1 (Event.Submit { pid = 0; ops = 10 });
        Event.make ~time:2 (Event.Submit { pid = 1; ops = 4 });
        Event.make ~time:3 (Event.Commit { pid = 0; slot = 0; ops = 8 });
        Event.make ~time:3 (Event.Apply { pid = 0; slot = 0; digest = 7 });
        Event.make ~time:4 (Event.Commit { pid = 0; slot = 1; ops = 6 });
        Event.make ~time:4 (Event.Apply { pid = 0; slot = 1; digest = 9 });
        Event.make ~time:9 (Event.Recover { pid = 1; slots = 2 });
      ]
  in
  (* Totals: ops submitted, ops and slots committed, slots applied; then
     one line per recovery episode. *)
  has_line lines "service: 14 ops submitted, 14 committed over 2 slots, 2 applies";
  has_line lines "recovery timeline (replica: slots repaired):";
  has_line lines "  p1: 2 slots@t9";
  (* Non-service traces omit the section entirely. *)
  let plain = report_lines [ Event.make ~time:0 Event.Round_begin ] in
  has_no_line_starting plain "service";
  has_no_line_starting plain "recover"

let test_suspicion_timeline_and_blame () =
  let lines =
    report_lines
      [
        Event.make ~time:1 (Event.Suspect_add { observer = 0; subject = 2 });
        Event.make ~time:4 (Event.Suspect_remove { observer = 0; subject = 2 });
        Event.make ~time:2 (Event.Suspect_add { observer = 1; subject = 0 });
        Event.make ~time:3 (Event.Drop { src = 1; dst = 0; blame = Some 1 });
        Event.make ~time:5 (Event.Drop { src = 1; dst = 0; blame = Some 1 });
        Event.make ~time:6 (Event.Drop { src = 0; dst = 2; blame = Some 2 });
      ]
  in
  (* One line per observer, its transitions in order; one line per
     link, sorted, with the drop count and the first drop's blame. *)
  let section header =
    let rec after = function
      | [] -> []
      | l :: rest when l = header -> before_next rest
      | _ :: rest -> after rest
    and before_next = function
      | l :: rest when String.starts_with ~prefix:"  " l -> l :: before_next rest
      | _ -> []
    in
    after lines
  in
  (match section "suspicion timeline (+ suspect, - trust):" with
  | [ l0; l1 ] ->
    check "observer 0 transitions" true (String.ends_with ~suffix:"0: +p2@t1 -p2@t4" l0);
    check "observer 1 transitions" true (String.ends_with ~suffix:"1: +p0@t2" l1)
  | other -> Alcotest.failf "unexpected timeline shape (%d observers)" (List.length other));
  Alcotest.(check (list string))
    "blame matrix"
    [ "  p0 -> p2: 1 (blame receiver)"; "  p1 -> p0: 2 (blame sender)" ]
    (section "omission blame matrix (src -> dst: count, blamed endpoint):")

(* --- Instrumented components --- *)

let counter_protocol : (int, int) Protocol.t =
  {
    Protocol.name = "counter";
    init = (fun _ -> 0);
    broadcast = (fun _ c -> c);
    step = (fun _ c _ -> c + 1);
  }

let test_runner_events_match_trace () =
  let n = 3 and rounds = 5 in
  let faults =
    Faults.of_events ~n
      [
        Faults.Drop { src = 1; dst = 0; round = 2 };
        Faults.Drop { src = 1; dst = 2; round = 4 };
        Faults.Crash { pid = 2; round = 5 };
      ]
  in
  let obs, events = collecting () in
  let trace = Runner.run ~obs ~faults ~rounds counter_protocol in
  let evs = events () in
  let count k = List.length (List.filter (fun e -> Event.kind e = k) evs) in
  check_int "one round_begin per round" rounds (count "round_begin");
  check_int "one round_end per round" rounds (count "round_end");
  check_int "one crash" 1 (count "crash");
  (* Drop events mirror trace.omissions exactly. *)
  let dropped =
    List.filter_map
      (fun e ->
        match e.Event.body with
        | Event.Drop { src; dst; _ } -> Some (e.Event.time, src, dst)
        | _ -> None)
      evs
  in
  Alcotest.(check (list (triple int int int)))
    "drops mirror the recorded omissions" trace.Trace.omissions dropped;
  (* Every drop is blamed on a declared-faulty endpoint. *)
  List.iter
    (fun e ->
      match e.Event.body with
      | Event.Drop { blame = Some b; _ } ->
        check "blame declared faulty" true (Pidset.mem b trace.Trace.declared_faulty)
      | Event.Drop { blame = None; _ } -> Alcotest.fail "unblamed drop"
      | _ -> ())
    evs;
  (* Deliveries: every live pair minus the drops (self-deliveries are
     never droppable). The metrics registry agrees. *)
  check_int "delivered counter matches events"
    (count "deliver")
    (Option.value ~default:0 (counter_value (Obs.metrics obs) "messages_delivered"))

let test_untraced_runner_unchanged () =
  let n = 3 and rounds = 4 in
  let faults =
    Faults.of_events ~n [ Faults.Drop { src = 0; dst = 1; round = 2 } ]
  in
  let obs = Obs.create () in
  let t1 = Runner.run ~faults ~rounds counter_protocol in
  let t2 = Runner.run ~obs ~faults ~rounds counter_protocol in
  check "traced run records the same history" true (t1 = t2)

let test_sim_events_match_result () =
  let open Ftss_async in
  let n = 3 in
  let config =
    {
      (Sim.default_config ~n ~seed:5) with
      Sim.gst = 50;
      horizon = 400;
      tick_interval = 10;
      crashes = [ (2, 200) ];
    }
  in
  let obs, events = collecting () in
  let oracle =
    Ewfd.make (Rng.create 3) ~n
      ~crashed:(fun p -> List.assoc_opt p config.Sim.crashes)
      ~gst:config.Sim.gst ~trusted:0 ~noise:0.2
  in
  let result = Sim.run ~obs config (Esfd.process ~obs ~n ~source:(Esfd.Oracle oracle) ()) in
  let evs = events () in
  let count k = List.length (List.filter (fun e -> Event.kind e = k) evs) in
  check_int "deliver events match the simulator's count" result.Sim.delivered
    (count "deliver");
  check_int "crash emitted once" 1 (count "crash");
  check "suspicion changes were emitted" true (count "suspect_add" > 0);
  (* The observation log's suspect-set changes and the event stream agree
     in count: every logged change produces at least one add/remove. *)
  check "adds+removes cover log entries" true
    (count "suspect_add" + count "suspect_remove" >= 1)

let test_heartbeat_layer_events () =
  (* The heartbeat source drives the same detector layer as the oracle, so
     a traced run emits its suspicion changes, and tracing changes no
     result. *)
  let open Ftss_async in
  let n = 5 in
  let config =
    {
      (Sim.default_config ~n ~seed:5) with
      Sim.gst = 300;
      horizon = 3000;
      delay_before_gst = (1, 80);
      delay_after_gst = (1, 5);
      crashes = [ (4, 200); (3, 700) ];
    }
  in
  let run ?obs ~corrupted () =
    let rng = Rng.create 18 in
    let corrupt_at =
      if corrupted then List.init n (fun p -> (0, p, Esfd.Layer.corrupt rng ~num_bound:5_000))
      else []
    in
    let result =
      Sim.run ?obs ~corrupt_at config (Esfd.process ?obs ~n ~source:Esfd.Heartbeats ())
    in
    (result, Esfd.analyze result ~config)
  in
  let obs, events = collecting () in
  let traced, traced_report = run ~obs ~corrupted:true () in
  let untraced, report = run ~corrupted:true () in
  let evs = events () in
  let count k = List.length (List.filter (fun e -> Event.kind e = k) evs) in
  check "suspect_add events" true (count "suspect_add" > 0);
  check "suspect_remove events" true (count "suspect_remove" > 0);
  check "report unchanged by tracing" true (traced_report = report);
  check "log unchanged by tracing" true (traced.Sim.log = untraced.Sim.log);
  check "converges" true
    (match report.Esfd.convergence with Sim.Stabilized _ -> true | _ -> false);
  (* From the clean start (nobody suspected), replaying each observer's
     events rebuilds its final suspect set. *)
  let obs, events = collecting () in
  let clean, _ = run ~obs ~corrupted:false () in
  let replayed = Array.make n Pidset.empty in
  List.iter
    (fun e ->
      match e.Event.body with
      | Event.Suspect_add { observer; subject } ->
        replayed.(observer) <- Pidset.add subject replayed.(observer)
      | Event.Suspect_remove { observer; subject } ->
        replayed.(observer) <- Pidset.remove subject replayed.(observer)
      | _ -> ())
    (events ());
  Array.iteri
    (fun p final ->
      match final with
      | None -> ()
      | Some l ->
        check
          (Printf.sprintf "p%d's events rebuild its suspect set" p)
          true
          (Pidset.equal replayed.(p) (Pidset.of_pred n (Esfd.Layer.suspected l))))
    clean.Sim.final_states

let test_explore_case_events () =
  let open Ftss_check in
  let prop =
    match Property.find ~name:"theorem3" ~inject:"none" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let params =
    prop.Property.restrict
      { Schedule_enum.n = 3; rounds = 2; f = 1; intervals = true; drops = true }
  in
  let cases = Schedule_enum.enumerate params in
  let obs, events = collecting () in
  let stats, _ = Explore.run ~obs ~domains:2 prop cases in
  let evs = events () in
  let count k = List.length (List.filter (fun e -> Event.kind e = k) evs) in
  check_int "a start per case" (Array.length cases) (count "case_start");
  check_int "a verdict per case" (Array.length cases) (count "case_verdict");
  check_int "per-domain stats cover all cases" stats.Explore.cases
    (Array.fold_left (fun a d -> a + d.Explore.d_cases) 0 stats.Explore.per_domain);
  check_int "per-domain states sum" stats.Explore.states
    (Array.fold_left (fun a d -> a + d.Explore.d_states) 0 stats.Explore.per_domain);
  (* Bespoke gauges landed in the registry. *)
  let m = Obs.metrics obs in
  check "runs/sec gauge" true
    (match gauge_value m "explore_runs_per_sec" with Some v -> v > 0.0 | None -> false);
  (* stats JSON parses back. *)
  check "stats json parses" true
    (match Json.of_string (Json.to_string (Explore.to_json stats)) with
    | Ok _ -> true
    | Error _ -> false)

let test_explore_stats_unchanged_by_obs () =
  let open Ftss_check in
  let prop =
    match Property.find ~name:"theorem3" ~inject:"none" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let params =
    prop.Property.restrict
      { Schedule_enum.n = 3; rounds = 2; f = 1; intervals = true; drops = true }
  in
  let cases = Schedule_enum.enumerate params in
  let s1, r1 = Explore.run ~domains:1 prop cases in
  let s2, r2 = Explore.run ~obs:(Obs.create ()) ~domains:1 prop cases in
  check "fingerprints identical" true (r1 = r2);
  check "violations identical" true (s1.Explore.violations = s2.Explore.violations);
  check_int "states identical" s1.Explore.states s2.Explore.states;
  (* A verdict's explanation comes from re-running the case; tracing
     that run leaves it unchanged. *)
  let view (r : Property.run) =
    let v = Lazy.force r.Property.verdict in
    (r.Property.fingerprint, v.Property.ok, v.Property.detail (), r.Property.states)
  in
  Array.iter
    (fun c ->
      check "traced re-run identical" true
        (view (prop.Property.run c) = view (prop.Property.run ~obs:(Obs.create ()) c)))
    cases;
  check_int "distinct identical" s1.Explore.distinct s2.Explore.distinct;
  check_int "dedup identical" s1.Explore.dedup_hits s2.Explore.dedup_hits

(* --- Bench_diff --- *)

let snapshot ?experiment ?(schema = 2) gauges =
  { Bench_diff.experiment; schema; gauges }

let test_bench_diff_directions () =
  let open Bench_diff in
  let direction name =
    let s = snapshot [ (name, 1.) ] in
    match (diff ~old_:s ~new_:s).entries with
    | [ e ] -> e.dir
    | _ -> Alcotest.failf "%s: not compared" name
  in
  check "per_sec is higher-better" true
    (direction "gauge.states_per_sec" = Higher_better);
  check "ns_per_call is lower-better" true
    (direction "ns_per_call.ftss round (n=4)" = Lower_better);
  check "elapsed is lower-better" true (direction "elapsed_seconds" = Lower_better);
  check "unknown units are informational" true
    (direction "gauge.corpus_size" = Informational)

let test_bench_diff_identity () =
  let s = snapshot ~experiment:"M1" [ ("ns_per_call.x", 100.); ("y.per_sec", 5.) ] in
  let r = Bench_diff.diff ~old_:s ~new_:s in
  check "no regressions on identity" true
    (Bench_diff.regressions r ~max_regress:0.0 = []);
  check_int "both gauges compared" 2 (List.length r.Bench_diff.entries)

let test_bench_diff_regression () =
  let old_ =
    snapshot [ ("ns_per_call.x", 100.); ("y.per_sec", 10.); ("corpus", 4.) ]
  in
  (* x doubled (lower-better: 100% worse), y halved (higher-better: 100%
     worse), corpus doubled (informational: never flagged). *)
  let new_ =
    snapshot [ ("ns_per_call.x", 200.); ("y.per_sec", 5.); ("corpus", 8.) ]
  in
  let r = Bench_diff.diff ~old_ ~new_ in
  let regs = Bench_diff.regressions r ~max_regress:25.0 in
  Alcotest.(check (list string))
    "both directed gauges flagged, informational spared"
    [ "ns_per_call.x"; "y.per_sec" ]
    (List.map (fun e -> e.Bench_diff.name) regs);
  List.iter
    (fun e ->
      check (e.Bench_diff.name ^ " is 100% worse") true
        (abs_float (e.Bench_diff.worse_pct -. 100.) < 1e-9))
    regs;
  (* A 20% slowdown survives a 25% gate but not a 10% one. *)
  let mild = snapshot [ ("ns_per_call.x", 120.) ] in
  let r = Bench_diff.diff ~old_:(snapshot [ ("ns_per_call.x", 100.) ]) ~new_:mild in
  check "within tolerance" true (Bench_diff.regressions r ~max_regress:25.0 = []);
  check "beyond a tighter gate" true
    (Bench_diff.regressions r ~max_regress:10.0 <> [])

let test_bench_diff_schema_envelope () =
  (* Schema-2 envelope and bare schema-1 metrics both decode. *)
  let parse s =
    let path = Filename.temp_file "bench_diff" ".json" in
    Out_channel.with_open_bin path (fun oc -> output_string oc s);
    let loaded = Bench_diff.load path in
    Sys.remove path;
    match loaded with Ok snap -> snap | Error msg -> Alcotest.failf "load: %s" msg
  in
  let v2 =
    parse {|{"experiment":"M1","schema":2,"gauges":{"ns_per_call.x":100}}|}
  in
  check "experiment read" true (v2.Bench_diff.experiment = Some "M1");
  check_int "schema 2" 2 v2.Bench_diff.schema;
  check "gauges read" true (v2.Bench_diff.gauges = [ ("ns_per_call.x", 100.) ]);
  let v1 = parse {|{"gauges":{"ns_per_call.x":100},"counters":{}}|} in
  check "schema defaults to 1" true (v1.Bench_diff.schema = 1);
  check "no experiment on schema 1" true (v1.Bench_diff.experiment = None);
  (* Disjoint gauge sets surface as only_old / only_new, not as entries. *)
  let r =
    Bench_diff.diff
      ~old_:(snapshot [ ("a", 1.); ("b", 2.) ])
      ~new_:(snapshot [ ("b", 2.); ("c", 3.) ])
  in
  Alcotest.(check (list string)) "only old" [ "a" ] r.Bench_diff.only_old;
  Alcotest.(check (list string)) "only new" [ "c" ] r.Bench_diff.only_new;
  check_int "shared compared" 1 (List.length r.Bench_diff.entries)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "obs",
      [
        tc "json round-trips" `Quick test_json_round_trip;
        tc "json rejects garbage" `Quick test_json_rejects_garbage;
        tc "json accessors" `Quick test_json_accessors;
        tc "event json round-trips every kind" `Quick test_event_round_trip;
        tc "event decode is total" `Quick test_event_rejects_unknown;
        tc "jsonl write/load round-trips" `Quick test_jsonl_and_load_round_trip;
        tc "golden jsonl fixture pins the wire format" `Quick test_golden_jsonl_writer;
        tc "golden jsonl legacy stamped lines still decode" `Quick
          test_golden_jsonl_reader;
        tc "coverage events fold into the summary" `Quick test_coverage_summary;
        tc "load names the malformed line" `Quick test_load_reports_bad_line;
        tc "console sink filters by kind" `Quick test_console_filter;
        tc "counters and gauges" `Quick test_metrics_counters_and_gauges;
        tc "log-bucket percentiles within error bound" `Quick
          test_lhist_percentiles_bounded_error;
        tc "log-bucket histogram outlives the reservoir" `Quick
          test_lhist_no_reservoir_bias;
        tc "lhist_merge edge cases and percentile agreement" `Quick
          test_lhist_merge_edges;
        tc "lobserve_n matches one lobserve per sample" `Quick
          test_lobserve_n_matches_lobserve;
        tc "record_event derivations + json snapshot" `Quick test_metrics_record_event_and_json;
        tc "hub fan-out and suspect_diff" `Quick test_obs_fan_out_and_suspect_diff;
        tc "hub dispatch order" `Quick test_obs_dispatch_order;
        tc "emit_windows round-trips" `Quick test_obs_emit_windows;
        tc "service totals and recovery timeline" `Quick test_service_summary;
        tc "suspicion timeline and blame matrix" `Quick test_suspicion_timeline_and_blame;
        tc "runner events mirror the trace" `Quick test_runner_events_match_trace;
        tc "tracing does not change the history" `Quick test_untraced_runner_unchanged;
        tc "sim events match the result" `Quick test_sim_events_match_result;
        tc "heartbeat layer emits its suspicions" `Quick test_heartbeat_layer_events;
        tc "explorer case events and per-domain stats" `Quick test_explore_case_events;
        tc "explorer verdicts unchanged by tracing" `Quick test_explore_stats_unchanged_by_obs;
        tc "bench-diff direction heuristics" `Quick test_bench_diff_directions;
        tc "bench-diff identity is clean" `Quick test_bench_diff_identity;
        tc "bench-diff flags 2x regressions both ways" `Quick test_bench_diff_regression;
        tc "bench-diff reads both schemas" `Quick test_bench_diff_schema_envelope;
      ] );
  ]
