(* Unit tests for the synchronous substrate: fault schedules, the lockstep
   runner, trace recording and sub-histories. *)

open Ftss_util
open Ftss_sync

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A protocol that accumulates the set of pids heard from, ever. *)
let gossip : (Pidset.t, Pidset.t) Protocol.t =
  {
    Protocol.name = "gossip";
    init = (fun p -> Pidset.singleton p);
    broadcast = (fun _ s -> s);
    step =
      (fun _ s deliveries ->
        List.fold_left
          (fun acc { Protocol.src; payload } -> Pidset.add src (Pidset.union acc payload))
          s deliveries);
  }

let counter : (int, int) Protocol.t =
  {
    Protocol.name = "counter";
    init = (fun _ -> 0);
    broadcast = (fun _ c -> c);
    step = (fun _ c _ -> c + 1);
  }

let state_exn trace ~round p =
  match Trace.state_before trace ~round p with
  | Some s -> s
  | None -> Alcotest.fail "process unexpectedly crashed"

let final_state_exn trace p =
  match Trace.state_after trace ~round:(Trace.length trace) p with
  | Some s -> s
  | None -> Alcotest.fail "process unexpectedly crashed"

let test_failure_free_gossip () =
  let trace = Runner.run ~faults:(Faults.none 4) ~rounds:3 gossip in
  (* After one round everyone has heard everyone. *)
  List.iter
    (fun p ->
      check "full knowledge after round 1" true
        (Pidset.equal (Pidset.full 4) (state_exn trace ~round:2 p)))
    (Pid.all 4)

let test_self_delivery_not_droppable () =
  (* Even a fully isolated process keeps receiving its own broadcast. *)
  let faults = Faults.of_events ~n:3 [ Faults.Isolate { pid = 2; first = 1; last = 5 } ] in
  let trace = Runner.run ~faults ~rounds:5 gossip in
  check "isolated process still knows itself" true
    (Pidset.mem 2 (final_state_exn trace 2));
  check "isolated process learned nothing else" true
    (Pidset.equal (Pidset.singleton 2) (final_state_exn trace 2));
  check "others never heard the isolated process" true
    (not (Pidset.mem 2 (final_state_exn trace 0)))

let test_crash_semantics () =
  let faults = Faults.of_events ~n:3 [ Faults.Crash { pid = 1; round = 2 } ] in
  let trace = Runner.run ~faults ~rounds:4 counter in
  check "alive before crash" true (Trace.alive trace ~round:1 1);
  check "dead at crash round" false (Trace.alive trace ~round:2 1);
  check "state is None after crash" true (Trace.state_before trace ~round:3 1 = None);
  (* The crashed process broadcast in round 1 but not in round 2. *)
  let r1 = Trace.record trace ~round:1 and r2 = Trace.record trace ~round:2 in
  check "sent in round 1" true (r1.Trace.sent.(1) <> None);
  check "silent in round 2" true (r2.Trace.sent.(1) = None)

let test_crash_in_round_1_means_no_participation () =
  let faults = Faults.of_events ~n:2 [ Faults.Crash { pid = 0; round = 1 } ] in
  let trace = Runner.run ~faults ~rounds:2 gossip in
  check "other never hears crashed" true
    (not (Pidset.mem 0 (final_state_exn trace 1)))

let test_drop_is_directional () =
  let faults = Faults.of_events ~n:2 [ Faults.Drop { src = 0; dst = 1; round = 1 } ] in
  let trace = Runner.run ~faults ~rounds:1 gossip in
  let r = Trace.record trace ~round:1 in
  let senders_to p =
    List.map (fun { Protocol.src; _ } -> src) r.Trace.delivered.(p)
  in
  check "1 did not hear 0" true (not (List.mem 0 (senders_to 1)));
  check "0 heard 1" true (List.mem 1 (senders_to 0));
  check_int "omission recorded" 1 (List.length trace.Trace.omissions)

let test_mute_deaf_isolate () =
  let n = 3 in
  let muted = Faults.of_events ~n [ Faults.Mute { pid = 0; first = 1; last = 2 } ] in
  check "mute drops sends" true (Faults.drops muted ~round:1 ~src:0 ~dst:1);
  check "mute does not drop receives" false (Faults.drops muted ~round:1 ~src:1 ~dst:0);
  check "mute expires" false (Faults.drops muted ~round:3 ~src:0 ~dst:1);
  let deaf = Faults.of_events ~n [ Faults.Deaf { pid = 0; first = 1; last = 2 } ] in
  check "deaf drops receives" true (Faults.drops deaf ~round:2 ~src:1 ~dst:0);
  check "deaf does not drop sends" false (Faults.drops deaf ~round:2 ~src:0 ~dst:1);
  let iso = Faults.of_events ~n [ Faults.Isolate { pid = 0; first = 1; last = 2 } ] in
  check "isolate drops both" true
    (Faults.drops iso ~round:1 ~src:0 ~dst:1 && Faults.drops iso ~round:1 ~src:1 ~dst:0)

let test_self_message_never_dropped_by_schedule () =
  let faults = Faults.of_events ~n:2 [ Faults.Isolate { pid = 0; first = 1; last = 9 } ] in
  check "self message survives isolation" false (Faults.drops faults ~round:1 ~src:0 ~dst:0)

let test_declared_faulty_covers_events () =
  let faults =
    Faults.of_events ~n:4
      [
        Faults.Crash { pid = 0; round = 3 };
        Faults.Mute { pid = 1; first = 1; last = 2 };
        Faults.Drop { src = 2; dst = 3; round = 1 };
      ]
  in
  check "crashed declared" true (Pidset.mem 0 (Faults.faulty faults));
  check "muted declared" true (Pidset.mem 1 (Faults.faulty faults));
  check "drop sender declared" true (Pidset.mem 2 (Faults.faulty faults));
  check_int "declared set" 3 (Pidset.cardinal (Faults.faulty faults))

let test_observed_faulty_subset_of_declared () =
  let rng = Rng.create 99 in
  let faults = Faults.random_omission rng ~n:6 ~f:2 ~p_drop:0.5 ~rounds:10 in
  let trace = Runner.run ~faults ~rounds:10 gossip in
  check "trace blames only declared-faulty processes" true (Trace.blames_declared trace)

let test_random_omission_spares_correct_links () =
  let rng = Rng.create 4 in
  let faults = Faults.random_omission rng ~n:5 ~f:2 ~p_drop:1.0 ~rounds:5 in
  let correct = Pidset.diff (Pidset.full 5) (Faults.faulty faults) in
  Pidset.iter
    (fun p ->
      Pidset.iter
        (fun q ->
          if not (Pid.equal p q) then
            check "correct-correct link reliable" false
              (Faults.drops faults ~round:3 ~src:p ~dst:q))
        correct)
    correct

let corrupt_all ~n corrupt = List.init n (fun p -> (0, p, corrupt p))

let test_corruption_applies_at_round_1 () =
  let trace =
    Runner.run
      ~corrupt_at:(corrupt_all ~n:2 (fun p _ -> Pidset.of_list [ p; 61 ]))
      ~faults:(Faults.none 2) ~rounds:1 gossip
  in
  check "corrupted state visible in round 1" true
    (Pidset.mem 61 (state_exn trace ~round:1 0))

(* Round-0 entries are the initial state: the trace, and so its content
   hash, equals that of a protocol whose [init] returns those states —
   for a partial schedule too, where the clean pids keep [init]. *)
let test_round0_entries_are_initial_states () =
  let n = 4 in
  let faults = Faults.of_events ~n [ Faults.Drop { src = 1; dst = 2; round = 2 } ] in
  let corrupt p s = Pidset.add ((p + 2) mod n) s in
  List.iter
    (fun victims ->
      let corrupt_at = List.map (fun p -> (0, p, corrupt p)) victims in
      let planted =
        {
          gossip with
          Protocol.init =
            (fun p ->
              let s = gossip.Protocol.init p in
              if List.mem p victims then corrupt p s else s);
        }
      in
      let a = Runner.run ~corrupt_at ~faults ~rounds:3 gossip in
      let b = Runner.run ~faults ~rounds:3 planted in
      check "equal traces" true (a = b);
      check_int "equal hashes" (Trace.hash b) (Trace.hash a))
    [ [ 0; 1; 2; 3 ]; [ 2 ]; [ 1; 3 ] ]

let test_corrupt_at_mid_run () =
  let trace =
    Runner.run
      ~corrupt_at:[ (3, 0, fun _ -> 100); (3, 1, fun _ -> 100) ]
      ~faults:(Faults.none 2) ~rounds:5 counter
  in
  check_int "counter reset mid-run" 100 (state_exn trace ~round:3 0);
  check_int "counts on from injected value" 102 (state_exn trace ~round:5 0)

let test_sub_trace () =
  let faults = Faults.of_events ~n:3 [ Faults.Crash { pid = 2; round = 4 } ] in
  let trace = Runner.run ~faults ~rounds:6 counter in
  let sub = Trace.sub trace ~first:3 ~last:5 in
  check_int "length" 3 (Trace.length sub);
  check_int "renumbered rounds" 1 (Trace.record sub ~round:1).Trace.round;
  check_int "states preserved" 2 (state_exn sub ~round:1 0);
  (* Crash at original round 4 becomes round 2 of the sub-trace. *)
  check "alive at sub round 1" true (Trace.alive sub ~round:1 2);
  check "crashed at sub round 2" false (Trace.alive sub ~round:2 2)

let test_sub_trace_bad_interval_raises () =
  let trace = Runner.run ~faults:(Faults.none 2) ~rounds:3 counter in
  Alcotest.check_raises "empty interval" (Invalid_argument "Trace.sub: empty interval")
    (fun () -> ignore (Trace.sub trace ~first:3 ~last:2))

let test_runner_rejects_zero_rounds () =
  Alcotest.check_raises "rounds < 1" (Invalid_argument "Runner.run: rounds < 1")
    (fun () -> ignore (Runner.run ~faults:(Faults.none 2) ~rounds:0 counter))

let test_pp_rounds_renders () =
  let faults = Faults.of_events ~n:3 [ Faults.Crash { pid = 2; round = 2 } ] in
  let trace = Runner.run ~faults ~rounds:3 counter in
  let s = Format.asprintf "%a" (Trace.pp_rounds Format.pp_print_int) trace in
  check "mentions every round" true
    (List.for_all (fun r -> String.length s > 0 && String.length r > 0) [ "r1"; "r2"; "r3" ]);
  (* The crashed process is marked. *)
  check "marks the crash" true
    (String.split_on_char '!' s |> List.length > 1)

let test_deliveries_ordered_by_sender () =
  let trace = Runner.run ~faults:(Faults.none 5) ~rounds:1 gossip in
  let r = Trace.record trace ~round:1 in
  let senders = List.map (fun { Protocol.src; _ } -> src) r.Trace.delivered.(3) in
  check "sorted" true (senders = List.sort compare senders)

(* Properties. *)

let prop_failure_free_counter_lockstep =
  QCheck.Test.make ~name:"failure-free counter stays in lockstep" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 1 20))
    (fun (n, rounds) ->
      let trace = Runner.run ~faults:(Faults.none n) ~rounds counter in
      List.for_all
        (fun p -> state_exn trace ~round:rounds p = rounds - 1)
        (Pid.all n))

let prop_gossip_monotone =
  QCheck.Test.make ~name:"gossip knowledge only grows" ~count:50
    QCheck.(triple (int_range 2 6) (int_range 2 10) small_nat)
    (fun (n, rounds, seed) ->
      let rng = Rng.create seed in
      let faults = Faults.random_omission rng ~n ~f:(n / 2) ~p_drop:0.4 ~rounds in
      let trace = Runner.run ~faults ~rounds gossip in
      List.for_all
        (fun p ->
          let rec mono r =
            if r >= rounds then true
            else
              match (Trace.state_before trace ~round:r p, Trace.state_before trace ~round:(r + 1) p) with
              | Some a, Some b -> Pidset.subset a b && mono (r + 1)
              | _ -> true
          in
          mono 1)
        (Pid.all n))

(* --- Trace.sub boundary remapping --- *)

let sub_fixture () =
  (* 8 rounds, p2 crashes at round 4, scattered omissions on p1's links
     (p1 declared faulty). *)
  let n = 3 in
  let faults =
    Faults.of_events ~n
      [
        Faults.Crash { pid = 2; round = 4 };
        Faults.Drop { src = 1; dst = 0; round = 2 };
        Faults.Drop { src = 1; dst = 0; round = 5 };
        Faults.Drop { src = 0; dst = 1; round = 7 };
      ]
  in
  Runner.run ~faults ~rounds:8 counter

let test_sub_crash_before_window () =
  (* Crash round 4 < window 6..8: the process enters the window already
     dead, so its remapped crash round clamps to 1. *)
  let s = Trace.sub (sub_fixture ()) ~first:6 ~last:8 in
  check_int "clamped crash round" 1
    (match s.Trace.crashed_at.(2) with Some r -> r | None -> -1);
  check "no state once crashed" true (Trace.state_before s ~round:1 2 = None)

let test_sub_crash_inside_window () =
  (* Crash round 4 within window 3..8 remaps to 4 - 3 + 1 = 2. *)
  let s = Trace.sub (sub_fixture ()) ~first:3 ~last:8 in
  check_int "remapped crash round" 2
    (match s.Trace.crashed_at.(2) with Some r -> r | None -> -1);
  check "alive before the remapped round" true (Trace.alive s ~round:1 2);
  check "dead from the remapped round" false (Trace.alive s ~round:2 2)

let test_sub_crash_after_window () =
  (* Crash round 4 > window 1..3: inside the sub-history the process
     never crashes. *)
  let s = Trace.sub (sub_fixture ()) ~first:1 ~last:3 in
  check "crash erased" true (s.Trace.crashed_at.(2) = None);
  (* The *declared* faulty set is the schedule's — sub keeps it. *)
  check "still declared faulty" false (Pidset.mem 2 (Trace.correct s));
  check "alive through the window" true (Trace.alive s ~round:3 2)

let test_sub_omission_filtering () =
  let t = sub_fixture () in
  (* Window 4..6 keeps only the round-5 drop, renumbered to round 2. *)
  let s = Trace.sub t ~first:4 ~last:6 in
  Alcotest.(check (list (triple int int int)))
    "only in-window omissions, renumbered"
    [ (2, 1, 0) ] s.Trace.omissions;
  (* Window 1..2 keeps only the round-2 drop. *)
  let s = Trace.sub t ~first:1 ~last:2 in
  Alcotest.(check (list (triple int int int)))
    "prefix omissions unchanged"
    [ (2, 1, 0) ] s.Trace.omissions;
  (* A window between the drops records none. *)
  let s = Trace.sub t ~first:3 ~last:4 in
  check_int "no omissions in a quiet window" 0 (List.length s.Trace.omissions);
  (* The declared faulty set is the schedule's, not the window's. *)
  check "declared faulty preserved" true (Pidset.mem 1 s.Trace.declared_faulty)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_pp_summary_and_rounds () =
  let t = sub_fixture () in
  let summary = Format.asprintf "%a" Trace.pp_summary t in
  List.iter
    (fun needle ->
      check (Printf.sprintf "summary mentions %S" needle) true (contains summary needle))
    [ "counter"; "n=3"; "rounds=8"; "omissions=3" ];
  let rounds = Format.asprintf "%a" (Trace.pp_rounds Format.pp_print_int) t in
  let lines = String.split_on_char '\n' rounds in
  check "one line per round" true (List.length lines >= 8);
  (* The crash marker appears once p2 is dead. *)
  check "crash marker printed" true (contains rounds "!")

(* --- Golden determinism: seeded executions pinned to the digests the
   pre-overhaul (defensively-copying, Marshal-fingerprinting) engine
   produced, so any behavioural drift in the runner hot path fails
   loudly rather than silently shifting every downstream result. --- *)

let md5 s = Digest.to_hex (Digest.string s)

let omissions_string t =
  String.concat ";"
    (List.map (fun (r, s, d) -> Printf.sprintf "%d,%d,%d" r s d) t.Trace.omissions)

let test_golden_counter () =
  let faults =
    Faults.of_events ~n:3
      [
        Faults.Crash { pid = 2; round = 4 };
        Faults.Drop { src = 1; dst = 0; round = 2 };
        Faults.Drop { src = 1; dst = 0; round = 5 };
        Faults.Drop { src = 0; dst = 1; round = 7 };
      ]
  in
  let t = Runner.run ~faults ~rounds:8 counter in
  let rendered = Format.asprintf "%a" (Trace.pp_rounds Format.pp_print_int) t in
  check_int "rendered length" 381 (String.length rendered);
  Alcotest.(check string) "pp_rounds digest" "25cb1776676e826558f01aa009b8e943"
    (md5 rendered);
  Alcotest.(check string) "summary"
    "counter: n=3 rounds=8 faulty={p1,p2} omissions=3"
    (Format.asprintf "%a" Trace.pp_summary t);
  Alcotest.(check string) "omissions" "2,1,0;5,1,0;7,0,1" (omissions_string t);
  (* The content hash is a pure function of the execution: re-running the
     same schedule reproduces it, and [sub] recomputes a consistent one. *)
  let t' = Runner.run ~faults ~rounds:8 counter in
  check_int "hash deterministic" (Trace.hash t) (Trace.hash t');
  check "sub changes the hash of a strict sub-history" true
    (Trace.hash (Trace.sub t ~first:2 ~last:6) <> Trace.hash t)

let test_golden_gossip () =
  let faults =
    Faults.of_events ~n:4
      [
        Faults.Isolate { pid = 3; first = 2; last = 4 };
        Faults.Drop { src = 0; dst = 2; round = 1 };
      ]
  in
  let t = Runner.run ~faults ~rounds:5 gossip in
  List.iter
    (fun p ->
      Alcotest.(check string)
        (Printf.sprintf "final state of p%d" p)
        "{p0,p1,p2,p3}"
        (match Trace.state_after t ~round:5 p with
        | Some s -> Format.asprintf "%a" Pidset.pp s
        | None -> "crashed"))
    (Pid.all 4);
  Alcotest.(check string) "omissions"
    "1,0,2;2,3,0;2,3,1;2,3,2;2,0,3;2,1,3;2,2,3;3,3,0;3,3,1;3,3,2;3,0,3;3,1,3;3,2,3;4,3,0;4,3,1;4,3,2;4,0,3;4,1,3;4,2,3"
    (omissions_string t)

(* --- Faults across the Pidset width switch: a schedule's rows are pid
   sets, one immediate word up to 62 processes and a word array beyond.
   [drops] and [quiet_round] must read exactly what the events say, on
   every link and round, including the round after the last one any
   event names. --- *)

let in_span round first last = first <= round && round <= last

(* The events' own meaning, with no schedule built. *)
let event_drops events ~round ~src ~dst =
  src <> dst
  && List.exists
       (function
         | Faults.Drop d -> d.round = round && d.src = src && d.dst = dst
         | Faults.Mute m -> m.pid = src && in_span round m.first m.last
         | Faults.Deaf d -> d.pid = dst && in_span round d.first d.last
         | Faults.Isolate i -> (i.pid = src || i.pid = dst) && in_span round i.first i.last
         | Faults.Crash _ | Faults.Blame _ -> false)
       events

let event_quiet events ~round =
  not
    (List.exists
       (function
         | Faults.Drop d -> d.round = round
         | Faults.Mute { first; last; _ }
         | Faults.Deaf { first; last; _ }
         | Faults.Isolate { first; last; _ } ->
           in_span round first last
         | Faults.Crash _ | Faults.Blame _ -> false)
       events)

let last_named_round events =
  List.fold_left
    (fun acc -> function
      | Faults.Drop { round; _ } | Faults.Crash { round; _ } -> max acc round
      | Faults.Mute { last; _ } | Faults.Deaf { last; _ } | Faults.Isolate { last; _ } ->
        max acc last
      | Faults.Blame _ -> acc)
    0 events

(* Events over pids on both sides of the one-word boundary (61/62),
   always with a point drop into the highest pid. *)
let random_events rng ~n =
  let pids =
    List.sort_uniq compare (List.filter (fun p -> p < n) [ 0; 1; 60; 61; 62; n - 2; n - 1 ])
  in
  let pid () = Rng.pick rng pids in
  let span () =
    let first = Rng.int_in rng 1 4 in
    (first, first + Rng.int_in rng 0 2)
  in
  Faults.Drop { src = 0; dst = n - 1; round = 2 }
  :: List.init 8 (fun _ ->
      match Rng.int rng 6 with
      | 0 | 1 ->
        let src = pid () in
        let dst = Rng.pick rng (List.filter (( <> ) src) pids) in
        Faults.Drop { src; dst; round = Rng.int_in rng 1 5 }
      | 2 ->
        let first, last = span () in
        Faults.Mute { pid = pid (); first; last }
      | 3 ->
        let first, last = span () in
        Faults.Deaf { pid = pid (); first; last }
      | 4 ->
        let first, last = span () in
        Faults.Isolate { pid = pid (); first; last }
      | _ -> Faults.Crash { pid = pid (); round = Rng.int_in rng 1 5 })

let faults_at_width n =
  List.for_all
    (fun seed ->
      let events = random_events (Rng.create seed) ~n in
      let t = Faults.of_events ~n events in
      let past = last_named_round events + 1 in
      let ok = ref (Faults.quiet_round t ~round:past) in
      for round = 1 to past do
        if Faults.quiet_round t ~round <> event_quiet events ~round then ok := false;
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            if Faults.drops t ~round ~src ~dst <> event_drops events ~round ~src ~dst then
              ok := false
          done
        done
      done;
      !ok)
    [ 7; 21; 908 ]

let test_faults_widths () =
  List.iter
    (fun n ->
      check (Printf.sprintf "faults rows at n=%d" n) true (faults_at_width n))
    [ 61; 62; 63; 200 ]

(* --- Trace.hash pins: values captured from the pre-width-overhaul
   engine (one-word Pidset, single-int fault rows). The width-polymorphic
   Pidset keeps small sets as immediate ints precisely so that these
   structural hashes — and with them every golden digest downstream —
   are bit-identical for all n <= 61 universes and for one-word-sized
   sets inside larger ones. --- *)

(* --- The resumable cursor --- *)

(* An observability hub that records every event as its JSON line. *)
let recording () =
  let lines = ref [] in
  let obs = Ftss_obs.Obs.create () in
  Ftss_obs.Obs.add_sink obs
    (Ftss_obs.Sink.make
       ~emit:(fun ev -> lines := Ftss_obs.Json.to_string (Ftss_obs.Event.to_json ev) :: !lines)
       ~close:ignore);
  (obs, fun () -> List.rev !lines)

let step_to ?obs ?corrupt_at ~faults ~rounds c ~from =
  let c = ref c in
  for _ = from + 1 to rounds do
    c := Runner.step ?obs ?corrupt_at ~faults !c
  done;
  !c

let test_cursor_composes_run () =
  let n = 4 and rounds = 6 in
  let schedules =
    [
      Faults.none n;
      Faults.of_events ~n
        [ Faults.Crash { pid = 3; round = 2 }; Faults.Drop { src = 0; dst = 1; round = 4 } ];
      Faults.of_events ~n
        [
          Faults.Mute { pid = 1; first = 1; last = 2 };
          Faults.Deaf { pid = 2; first = 3; last = 5 };
          Faults.Isolate { pid = 0; first = 6; last = 6 };
        ];
      Faults.random_omission (Rng.create 7) ~n ~f:2 ~p_drop:0.4 ~rounds;
    ]
  in
  let initial = corrupt_all ~n (fun p s -> Pidset.add ((p + 1) mod n) s) in
  List.iter
    (fun faults ->
      List.iter
        (fun later ->
          let corrupt_at = initial @ later in
          let o1, events1 = recording () and o2, events2 = recording () in
          let a = Runner.run ~obs:o1 ~corrupt_at ~faults ~rounds gossip in
          let b =
            Runner.finish ~faults
              (step_to ~obs:o2 ~corrupt_at ~faults ~rounds ~from:0
                 (Runner.start ~obs:o2 ~corrupt_at ~n gossip))
          in
          check "structurally equal traces" true (a = b);
          check_int "equal hashes" (Trace.hash a) (Trace.hash b);
          check "byte-identical event streams" true (events1 () = events2 ());
          check "events were recorded" true (events1 () <> []))
        [
          [];
          List.init n (fun p -> (3, p, Pidset.add 0)) @ List.init n (fun p -> (5, p, Pidset.add p));
        ])
    schedules

let test_cursor_is_persistent () =
  (* Both schedules crash pid 3 in round 2 and agree through round 3, so
     they share the cursor after round 3; [late_crash] then crashes pid 1
     — continuing it first must leave the shared cursor intact for
     [late_mute]. *)
  let n = 4 and rounds = 6 in
  let base =
    [ Faults.Crash { pid = 3; round = 2 }; Faults.Drop { src = 0; dst = 2; round = 3 } ]
  in
  let late ev = Faults.of_events ~n (base @ [ ev ]) in
  let late_crash = late (Faults.Crash { pid = 1; round = 5 }) in
  let late_mute = late (Faults.Mute { pid = 2; first = 4; last = 6 }) in
  let corrupt_at = corrupt_all ~n (fun p c -> c + (10 * p)) in
  let shared =
    step_to ~faults:late_crash ~rounds:3 ~from:0 (Runner.start ~corrupt_at ~n counter)
  in
  let resume faults = Runner.finish ~faults (step_to ~faults ~rounds ~from:3 shared) in
  let crash = resume late_crash in
  let mute = resume late_mute in
  let again = resume late_crash in
  List.iter
    (fun (name, faults, trace) ->
      let fresh = Runner.run ~corrupt_at ~faults ~rounds counter in
      check (name ^ ": resumed trace = fresh run") true (trace = fresh);
      check_int (name ^ ": hash") (Trace.hash fresh) (Trace.hash trace))
    [
      ("late crash", late_crash, crash);
      ("late mute", late_mute, mute);
      ("again", late_crash, again);
    ];
  check "pid 1 crashed only under late_crash" true
    (crash.Trace.crashed_at.(1) = Some 5 && mute.Trace.crashed_at.(1) = None)

let test_trace_hash_pins () =
  let open Ftss_core in
  let pin name expected h =
    Alcotest.(check string) name (Printf.sprintf "0x%x" expected) (Printf.sprintf "0x%x" h)
  in
  List.iter
    (fun (n, expected) ->
      let t = Runner.run ~faults:(Faults.none n) ~rounds:4 Round_agreement.protocol in
      pin (Printf.sprintf "round agreement n=%d clean" n) expected (Trace.hash t))
    [
      (3, 0x1d8b35108af0f0f);
      (16, 0x27648fb334272661);
      (61, 0xdac479ff9991004);
      (62, 0x2a88eb15526b05c6);
    ];
  let faults =
    Faults.of_events ~n:5
      [
        Faults.Crash { pid = 1; round = 2 };
        Faults.Mute { pid = 3; first = 1; last = 2 };
        Faults.Drop { src = 0; dst = 2; round = 1 };
      ]
  in
  let t =
    Runner.run
      ~corrupt_at:(corrupt_all ~n:5 (fun p c -> c + (97 * (p + 1))))
      ~faults ~rounds:5 Round_agreement.protocol
  in
  pin "round agreement n=5 corrupt+faults" 0xea8038d455e64d4 (Trace.hash t);
  let n = 4 in
  let pi = Ftss_protocols.Omission_consensus.make ~n ~f:1 ~propose:(fun p -> 50 + p) in
  let compiled = Compiler.compile ~n pi in
  let t = Runner.run ~faults:(Faults.none n) ~rounds:6 compiled in
  pin "compiled consensus n=4 clean" 0x265eb86be14ed56c (Trace.hash t)

(* What the runner and the event stream read off a schedule: each
   process's crash round, and the endpoint charged with an omission on a
   link (the sender when both are declared faulty). *)
let test_crash_round_and_blame () =
  let faults =
    Faults.of_events ~n:4
      [ Faults.Crash { pid = 1; round = 3 }; Faults.Mute { pid = 2; first = 1; last = 2 } ]
  in
  Alcotest.(check (list (option int))) "crash rounds" [ None; Some 3; None; None ]
    (List.map (Faults.crash_round faults) (Pid.all 4));
  Alcotest.(check (option int)) "faulty sender blamed" (Some 2)
    (Faults.blame faults ~src:2 ~dst:0);
  Alcotest.(check (option int)) "faulty receiver blamed" (Some 1)
    (Faults.blame faults ~src:0 ~dst:1);
  Alcotest.(check (option int)) "sender preferred when both are faulty" (Some 2)
    (Faults.blame faults ~src:2 ~dst:1);
  Alcotest.(check (option int)) "correct link has no one to blame" None
    (Faults.blame faults ~src:0 ~dst:3)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "sync",
      [
        tc "failure-free gossip floods in one round" `Quick test_failure_free_gossip;
        tc "self delivery survives isolation" `Quick test_self_delivery_not_droppable;
        tc "crash semantics" `Quick test_crash_semantics;
        tc "crash in round 1" `Quick test_crash_in_round_1_means_no_participation;
        tc "drop is directional and recorded" `Quick test_drop_is_directional;
        tc "mute/deaf/isolate" `Quick test_mute_deaf_isolate;
        tc "schedule cannot drop self messages" `Quick test_self_message_never_dropped_by_schedule;
        tc "declared faulty covers events" `Quick test_declared_faulty_covers_events;
        tc "crash round and blame" `Quick test_crash_round_and_blame;
        tc "observed faulty within declared" `Quick test_observed_faulty_subset_of_declared;
        tc "random omission spares correct links" `Quick test_random_omission_spares_correct_links;
        tc "sub remaps crash before window" `Quick test_sub_crash_before_window;
        tc "sub remaps crash inside window" `Quick test_sub_crash_inside_window;
        tc "sub erases crash after window" `Quick test_sub_crash_after_window;
        tc "sub filters and renumbers omissions" `Quick test_sub_omission_filtering;
        tc "pp_summary and pp_rounds" `Quick test_pp_summary_and_rounds;
        tc "corruption applies at round 1" `Quick test_corruption_applies_at_round_1;
        tc "mid-run corruption" `Quick test_corrupt_at_mid_run;
        tc "round-0 entries are initial states" `Quick test_round0_entries_are_initial_states;
        tc "sub-trace" `Quick test_sub_trace;
        tc "sub-trace rejects empty interval" `Quick test_sub_trace_bad_interval_raises;
        tc "runner rejects zero rounds" `Quick test_runner_rejects_zero_rounds;
        tc "deliveries ordered by sender" `Quick test_deliveries_ordered_by_sender;
        tc "pp_rounds renders" `Quick test_pp_rounds_renders;
        tc "golden: counter under crash+drops" `Quick test_golden_counter;
        tc "golden: gossip under isolation" `Quick test_golden_gossip;
        tc "faults rows across the width switch" `Quick test_faults_widths;
        tc "cursor: start, step, finish = run" `Quick test_cursor_composes_run;
        tc "cursor: persistent across branches" `Quick test_cursor_is_persistent;
        tc "golden: Trace.hash pinned across the Pidset overhaul" `Quick
          test_trace_hash_pins;
        QCheck_alcotest.to_alcotest prop_failure_free_counter_lockstep;
        QCheck_alcotest.to_alcotest prop_gossip_monotone;
      ] );
  ]
