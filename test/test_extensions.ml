(* Tests for the extension modules: the heartbeat ◇W implementation, the
   oracle-free detector stack, terminating reliable broadcast, and the
   ablation variants (suspect-filter-off compiler, partial consensus
   styles). *)

open Ftss_util
open Ftss_async

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let corrupt_all ~n corrupt = List.init n (fun p -> (0, p, corrupt p))

(* Every process's iteration completions, in round order (no process
   counted faulty). *)
let completions trace =
  List.concat_map snd (Ftss_protocols.Repeated.decisions_by_round trace ~faulty:Pidset.empty)

(* --- Heartbeat ◇W --- *)

let test_heartbeat_pure_machine () =
  let t = Heartbeat.create ~n:3 ~initial_timeout:20 ~backoff:10 in
  (* Silence past the timeout: suspected. *)
  let t = Heartbeat.tick t ~self:0 ~now:25 in
  check "silent peer suspected" true (Heartbeat.suspected t 1);
  check "never self-suspects" false (Heartbeat.suspected t 0);
  (* A heartbeat clears the suspicion and backs off the timeout. *)
  let t = Heartbeat.heard t ~src:1 ~now:26 in
  check "heartbeat clears suspicion" false (Heartbeat.suspected t 1);
  (* Now a silence of 25 < 20+10 does not re-suspect. *)
  let t = Heartbeat.tick t ~self:0 ~now:51 in
  check "timeout grew after false suspicion" false (Heartbeat.suspected t 1);
  let t = Heartbeat.tick t ~self:0 ~now:57 in
  check "but a longer silence does" true (Heartbeat.suspected t 1)

let test_heartbeat_future_corruption_clamped () =
  let t = Heartbeat.create ~n:2 ~initial_timeout:10 ~backoff:5 in
  let rng = Rng.create 3 in
  let t = Heartbeat.corrupt rng ~time_bound:1_000_000 ~timeout_bound:10 t in
  (* Whatever the corruption claimed, after a tick at now=5 and silence
     through now=100 the peer must be suspected. *)
  let t = Heartbeat.tick t ~self:0 ~now:5 in
  let t = Heartbeat.tick t ~self:0 ~now:100 in
  check "corrupted future last-heard clamps and times out" true (Heartbeat.suspected t 1)

let hb_config ~seed ~n ~crashes =
  {
    (Sim.default_config ~n ~seed) with
    Sim.gst = 300;
    horizon = 3000;
    tick_interval = 10;
    delay_before_gst = (1, 80);
    delay_after_gst = (1, 5);
    crashes;
  }

(* The heartbeat detector on its own, as a Sim process: broadcast and
   re-evaluate on every tick, record a heartbeat on every message, and
   observe the suspect set each tick and on each change. *)
type hb_observation = Hb_suspects of Pidset.t

let hb_suspects ~n t = Pidset.of_pred n (Heartbeat.suspected t)

let hb_process ~n ~initial_timeout ~backoff =
  {
    Sim.name = "heartbeat-fd";
    init = (fun _ -> Heartbeat.create ~n ~initial_timeout ~backoff);
    on_tick =
      (fun ctx t ->
        Sim.broadcast ctx Heartbeat.Heartbeat;
        let t = Heartbeat.tick t ~self:(Sim.self ctx) ~now:(Sim.now ctx) in
        Sim.observe ctx (Hb_suspects (hb_suspects ~n t));
        t);
    on_message =
      (fun ctx t ~src Heartbeat.Heartbeat ->
        let before = hb_suspects ~n t in
        let t = Heartbeat.heard t ~src ~now:(Sim.now ctx) in
        let after = hb_suspects ~n t in
        if not (Pidset.equal before after) then Sim.observe ctx (Hb_suspects after);
        t);
  }

(* [(completeness_from, accuracy_from)]: the times from which every
   correct process suspects every crashed process (completeness) and no
   correct one (eventual strong accuracy), through to the end of the run. *)
let hb_settle_times (result : (_, hb_observation) Sim.result) ~config =
  let crashed = Sim.crashed_set config and correct = Sim.correct_set config in
  let last_incomplete = ref (-1) and last_inaccurate = ref (-1) in
  List.iter
    (fun (time, pid, Hb_suspects set) ->
      if Pidset.mem pid correct then begin
        if not (Pidset.subset crashed set) then last_incomplete := max !last_incomplete time;
        if not (Pidset.is_empty (Pidset.inter set correct)) then
          last_inaccurate := max !last_inaccurate time
      end)
    result.Sim.log;
  (!last_incomplete + 1, !last_inaccurate + 1)

(* Both properties must settle within the first half of the run (GST is
   at 300 of 3000), so the second half witnesses them. *)
let check_hb_settles label result ~config =
  let completeness_from, accuracy_from = hb_settle_times result ~config in
  let half = config.Sim.horizon / 2 in
  check (label ^ ": completeness") true (completeness_from <= half);
  check (label ^ ": accuracy (eventually strong)") true (accuracy_from <= half)

let test_heartbeat_detector_converges () =
  let config = hb_config ~seed:21 ~n:5 ~crashes:[ (4, 200) ] in
  let result = Sim.run config (hb_process ~n:5 ~initial_timeout:30 ~backoff:20) in
  check_hb_settles "clean start" result ~config

let test_heartbeat_detector_converges_from_corruption () =
  for seed = 0 to 8 do
    let config = hb_config ~seed:(40 + seed) ~n:4 ~crashes:[ (3, 150) ] in
    let rng = Rng.create (seed + 900) in
    let corrupt _ t = Heartbeat.corrupt rng ~time_bound:10_000 ~timeout_bound:200 t in
    let result =
      Sim.run ~corrupt_at:(corrupt_all ~n:4 corrupt) config
        (hb_process ~n:4 ~initial_timeout:30 ~backoff:20)
    in
    check_hb_settles (Printf.sprintf "corrupted start (seed %d)" seed) result ~config
  done

(* --- The detector layer over heartbeats (no oracle anywhere) --- *)

let test_stack_clean () =
  let config = hb_config ~seed:5 ~n:5 ~crashes:[ (4, 200); (3, 700) ] in
  let result = Sim.run config (Esfd.process ~n:5 ~source:Esfd.Heartbeats ()) in
  let report = Esfd.analyze result ~config in
  check "stack converges to ◇S" true (report.Esfd.convergence_time <> None)

let test_stack_with_both_layers_corrupted () =
  for seed = 0 to 8 do
    let config = hb_config ~seed:(60 + seed) ~n:5 ~crashes:[ (4, 150) ] in
    let rng = Rng.create (seed + 77) in
    let corrupt _ t = Esfd.Layer.corrupt rng ~num_bound:5_000 t in
    let result =
      Sim.run ~corrupt_at:(corrupt_all ~n:5 corrupt) config
        (Esfd.process ~n:5 ~source:Esfd.Heartbeats ())
    in
    let report = Esfd.analyze result ~config in
    check
      (Printf.sprintf "corrupted stack converges (seed %d)" seed)
      true
      (report.Esfd.convergence_time <> None)
  done

(* --- Terminating reliable broadcast --- *)

open Ftss_sync
open Ftss_core
open Ftss_protocols

let run_ft pi ~faults =
  let protocol = Canonical.to_protocol pi in
  let rounds = pi.Canonical.final_round in
  let trace = Runner.run ~faults ~rounds protocol in
  List.filter_map
    (fun p ->
      match Trace.state_after trace ~round:rounds p with
      | Some st -> Canonical.ft_decision pi st
      | None -> None)
    (Pid.all (Faults.n faults))

let test_trb_correct_sender_delivers () =
  let pi = Reliable_broadcast.make ~n:4 ~f:1 ~sender:2 ~value:99 in
  let outcomes = run_ft pi ~faults:(Faults.none 4) in
  check_int "everyone delivers" 4 (List.length outcomes);
  check "all deliver the value" true (List.for_all (fun o -> o = Some 99) outcomes)

let test_trb_crashed_sender_agreement () =
  (* Sender crashes before sending anything: everyone delivers ⊥. *)
  let pi = Reliable_broadcast.make ~n:4 ~f:1 ~sender:2 ~value:99 in
  let faults = Faults.of_events ~n:4 [ Faults.Crash { pid = 2; round = 1 } ] in
  let outcomes = run_ft pi ~faults in
  check "survivors agree on bottom" true (List.for_all (fun o -> o = None) outcomes)

let test_trb_omission_sender_agreement () =
  (* A sender that reveals its value to one process in the last round:
     the suspect filter forces a common outcome among correct processes. *)
  for seed = 0 to 30 do
    let rng = Rng.create (500 + seed) in
    let n = Rng.int_in rng 3 6 in
    let f = Rng.int_in rng 1 (max 1 (n - 2)) in
    let sender = Rng.int rng n in
    let pi = Reliable_broadcast.make ~n ~f ~sender ~value:7 in
    let faults =
      Faults.random_omission rng ~n ~f ~p_drop:0.6 ~rounds:pi.Canonical.final_round
    in
    let trace = Runner.run ~faults ~rounds:pi.Canonical.final_round (Canonical.to_protocol pi) in
    let correct_outcomes =
      List.filter_map
        (fun p ->
          if Pidset.mem p (Faults.faulty faults) then None
          else
            match Trace.state_after trace ~round:pi.Canonical.final_round p with
            | Some st -> Canonical.ft_decision pi st
            | None -> None)
        (Pid.all n)
    in
    (match correct_outcomes with
    | [] -> ()
    | first :: rest ->
      check
        (Printf.sprintf "agreement (seed %d)" seed)
        true
        (List.for_all (fun o -> o = first) rest));
    (* Validity: a correct sender's value is always delivered. *)
    if not (Pidset.mem sender (Faults.faulty faults)) then
      check
        (Printf.sprintf "validity (seed %d)" seed)
        true
        (List.for_all (fun o -> o = Some 7) correct_outcomes)
  done

let test_trb_compiles () =
  let n = 4 in
  let pi = Reliable_broadcast.make ~n ~f:1 ~sender:1 ~value:42 in
  let compiled = Compiler.compile ~n pi in
  let rng = Rng.create 11 in
  let corrupt =
    Compiler.corrupt rng ~pi ~n ~c_bound:500 ~corrupt_s:(fun rng _ s ->
        if Rng.bool rng then { s with Reliable_broadcast.relayed = Some (Rng.int rng 1000) }
        else s)
  in
  let trace = Runner.run ~corrupt_at:(corrupt_all ~n corrupt) ~faults:(Faults.none n) ~rounds:30 compiled in
  let valid = function Some 42 | None -> true | Some _ -> false in
  let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
  check "compiled TRB ftss-solves Σ⁺" true
    (Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace)

let test_trb_rejects_bad_sender () =
  Alcotest.check_raises "bad sender"
    (Invalid_argument "Reliable_broadcast.make: sender out of range") (fun () ->
      ignore (Reliable_broadcast.make ~n:3 ~f:1 ~sender:3 ~value:0))

(* --- Ablation variants --- *)

let test_unfiltered_compiler_breaks_under_stale_messages () =
  (* The E8a scenario, as a regression test: plain flooding compiled
     without the suspect filter disagrees forever; with the filter it is
     fine. *)
  let n = 3 in
  let propose p = 50 + p in
  let pi = Flooding_consensus.make ~f:1 ~propose in
  let rounds = 30 in
  let faults =
    Faults.of_events ~n
      (Faults.Deaf { pid = 0; first = 1; last = rounds }
      :: List.concat_map
           (fun r ->
             Faults.Drop { src = 0; dst = 1; round = r }
             :: (if r mod pi.Canonical.final_round <> 0 then
                   [ Faults.Drop { src = 0; dst = 2; round = r } ]
                 else []))
           (List.init rounds (fun i -> i + 1)))
  in
  let corrupt_at = [ (0, 0, fun (st : _ Compiler.state) -> { st with Compiler.c = 5 }) ] in
  let spec =
    Repeated.round_and_sigma ~final_round:pi.Canonical.final_round
      ~valid:(fun d -> d >= 50 && d < 53)
      ()
  in
  let run ~suspect_filter =
    let compiled = Compiler.compile ~suspect_filter ~n pi in
    let trace = Runner.run ~corrupt_at ~faults ~rounds compiled in
    Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace
  in
  check "with filter: Theorem 4 holds" true (run ~suspect_filter:true);
  check "without filter: broken" false (run ~suspect_filter:false)

let propose_async p i = 100 + (((p * 13) + (i * 7)) mod 50)

let run_style ?corrupt ?spurious ?(noise = 0.2) ~style ~seed () =
  let n = 5 in
  let config =
    {
      (Sim.default_config ~n ~seed) with
      Sim.gst = 300;
      horizon = 4000;
      tick_interval = 10;
      delay_before_gst = (1, 60);
      delay_after_gst = (1, 4);
    }
  in
  let oracle =
    Ewfd.make (Rng.create (seed + 7)) ~n ~crashed:(fun _ -> None) ~gst:config.Sim.gst
      ~trusted:1 ~noise
  in
  let result =
    Sim.run
      ~corrupt_at:(Option.fold ~none:[] ~some:(corrupt_all ~n) corrupt)
      ?spurious config
      (Consensus.process ~n ~style ~propose:propose_async ~detector:(Esfd.Oracle oracle) ())
  in
  (config, result)

let decided_after_gst (config, result) =
  Consensus.fully_decided_after (Consensus.decisions result)
    ~correct:(Sim.correct_set config) ~from:config.Sim.gst

let test_retransmit_only_dissolves_parked () =
  let parked = Consensus.corrupt_parked ~round:6 in
  let r =
    run_style ~corrupt:parked ~noise:0.0 ~style:Consensus.retransmit_only ~seed:9 ()
  in
  check "retransmission alone dissolves the parked deadlock" true (decided_after_gst r > 0)

let test_round_agreement_only_stays_parked () =
  let parked = Consensus.corrupt_parked ~round:6 in
  let r =
    run_style ~corrupt:parked ~noise:0.0 ~style:Consensus.round_agreement_only ~seed:9 ()
  in
  check_int "round agreement alone cannot dissolve the parked deadlock" 0
    (decided_after_gst r)

let test_future_round_buffered_unless_round_agreement () =
  (* Everyone parked in round 6 of instance 0, and a forged ROUND tag for
     round 7 in every channel. Without round agreement the classic CT
     buffer holds it until round 7 is reached — which never happens, so
     the deadlock stands; with round agreement everyone joins round 7,
     whose coordinator collects fresh estimates and decides. *)
  let parked = Consensus.corrupt_parked ~round:6 in
  let spurious =
    List.map
      (fun p -> (5, 0, p, Consensus.forged_round { Consensus.instance = 0; round = 7 }))
      (Pid.all 5)
  in
  let run style =
    snd (run_style ~corrupt:parked ~spurious ~noise:0.0 ~style ~seed:9 ())
  in
  let r = run Consensus.baseline in
  check_int "baseline: buffered, never replayed, still deadlocked" 0
    (List.length (Consensus.decisions r));
  let r = run Consensus.round_agreement_only in
  let joined_7 p =
    List.exists
      (fun (_, q, o) ->
        q = p
        && match o with
           | Consensus.Joined { instance = 0; round = 7 } -> true
           | Consensus.Joined _ | Consensus.Decided _ -> false)
      r.Sim.log
  in
  check "round agreement: every process joined round 7" true
    (List.for_all joined_7 (Pid.all 5));
  check "round agreement: an instance decided" true (Consensus.decisions r <> [])

let test_all_styles_work_from_clean_state () =
  List.iter
    (fun style ->
      let r = run_style ~style ~seed:12 () in
      check "clean progress" true (decided_after_gst r > 0))
    Consensus.[ baseline; retransmit_only; round_agreement_only; self_stabilizing ]

(* --- Oracle-free consensus: the whole §3 stack on partial synchrony --- *)

let test_consensus_over_heartbeats () =
  (* No scripted detector anywhere: heartbeats implement ◇W, Figure 4
     lifts it to ◇S, and the self-stabilizing consensus runs on top —
     from a randomly corrupted state. *)
  let n = 5 in
  let config =
    {
      (Sim.default_config ~n ~seed:91) with
      Sim.gst = 300;
      horizon = 5000;
      tick_interval = 10;
      delay_before_gst = (1, 60);
      delay_after_gst = (1, 4);
      crashes = [ (4, 600) ];
    }
  in
  let rng = Rng.create 19 in
  let corrupt =
    Consensus.corrupt_random rng ~instance_bound:15 ~round_bound:20 ~value_bound:90
  in
  let result =
    Sim.run ~corrupt_at:(corrupt_all ~n corrupt) config
      (Consensus.process ~n ~style:Consensus.self_stabilizing ~propose:propose_async
         ~detector:Esfd.Heartbeats ())
  in
  let correct = Sim.correct_set config in
  match Consensus.stabilization_time result ~correct ~propose:propose_async ~n with
  | None -> Alcotest.fail "oracle-free consensus did not stabilize"
  | Some from ->
    check "oracle-free consensus does useful work" true
      (Consensus.fully_decided_after (Consensus.decisions result) ~correct ~from >= 2)

let test_consensus_over_heartbeats_many_seeds () =
  for seed = 0 to 5 do
    let n = 4 in
    let config =
      {
        (Sim.default_config ~n ~seed:(seed + 400)) with
        Sim.gst = 300;
        horizon = 4000;
        tick_interval = 10;
        delay_before_gst = (1, 60);
        delay_after_gst = (1, 4);
      }
    in
    let result =
      Sim.run config
        (Consensus.process ~n ~style:Consensus.self_stabilizing ~propose:propose_async
           ~detector:Esfd.Heartbeats ())
    in
    let correct = Sim.correct_set config in
    let grouped = Consensus.per_instance (Consensus.decisions result) ~correct in
    check (Printf.sprintf "progress (seed %d)" seed) true (List.length grouped >= 3);
    Alcotest.(check (list int))
      (Printf.sprintf "agreement (seed %d)" seed)
      [] (Consensus.disagreements grouped)
  done

(* --- Spurious channel messages (the KP90 channel-corruption concern) --- *)

let test_ss_consensus_survives_forged_round_tags () =
  (* A systemic failure can leave junk in the channels too: plant forged
     ROUND heartbeats claiming an absurdly high (instance, round). The
     self-stabilizing protocol jumps there and simply continues from that
     point — useful work resumes at the forged instance. *)
  let n = 5 in
  let forged = { Consensus.instance = 5_000; round = 17 } in
  let spurious =
    List.map (fun p -> (5, 0, p, Consensus.forged_round forged)) (Pid.all n)
  in
  let config =
    {
      (Sim.default_config ~n ~seed:44) with
      Sim.gst = 300;
      horizon = 4000;
      tick_interval = 10;
      delay_before_gst = (1, 60);
      delay_after_gst = (1, 4);
    }
  in
  let oracle =
    Ewfd.make (Rng.create 51) ~n ~crashed:(fun _ -> None) ~gst:config.Sim.gst ~trusted:1
      ~noise:0.2
  in
  let result =
    Sim.run ~spurious config
      (Consensus.process ~n ~style:Consensus.self_stabilizing ~propose:propose_async
         ~detector:(Esfd.Oracle oracle) ())
  in
  let correct = Sim.correct_set config in
  let ds = Consensus.decisions result in
  let high_instances = List.filter (fun d -> d.Consensus.d_instance >= 5_000) ds in
  check "work resumed beyond the forged tag" true (List.length high_instances > 0);
  let grouped = Consensus.per_instance ds ~correct in
  Alcotest.(check (list int)) "no disagreement anywhere" [] (Consensus.disagreements grouped)

let test_ss_consensus_survives_forged_decide () =
  (* A forged DECIDE with an illegal value for a far-future instance: the
     victims adopt it (it is indistinguishable from a legitimate
     decision), producing one invalid instance — and every later instance
     is clean again. *)
  let n = 5 in
  let spurious = [ (5, 0, 2, Consensus.forged_decide ~instance:900 ~value:(-1)) ] in
  let config =
    {
      (Sim.default_config ~n ~seed:45) with
      Sim.gst = 300;
      horizon = 4000;
      tick_interval = 10;
      delay_before_gst = (1, 60);
      delay_after_gst = (1, 4);
    }
  in
  let oracle =
    Ewfd.make (Rng.create 52) ~n ~crashed:(fun _ -> None) ~gst:config.Sim.gst ~trusted:1
      ~noise:0.2
  in
  let result =
    Sim.run ~spurious config
      (Consensus.process ~n ~style:Consensus.self_stabilizing ~propose:propose_async
         ~detector:(Esfd.Oracle oracle) ())
  in
  let correct = Sim.correct_set config in
  match Consensus.stabilization_time result ~correct ~propose:propose_async ~n with
  | None -> Alcotest.fail "did not stabilize after the forged decide"
  | Some from ->
    check "useful work after the forgery" true
      (Consensus.fully_decided_after (Consensus.decisions result) ~correct ~from >= 1)

(* --- Repeated destabilization (rolling mute) --- *)

let test_rolling_mute_schedule_shape () =
  let faults = Faults.rolling_mute ~n:3 ~victim:2 ~period:4 ~rounds:20 in
  (* Silent in rounds 1-4, 9-12, 17-20; talking in 5-8, 13-16. *)
  check "silent at 1" true (Faults.drops faults ~round:1 ~src:2 ~dst:0);
  check "silent at 4" true (Faults.drops faults ~round:4 ~src:2 ~dst:0);
  check "talking at 5" false (Faults.drops faults ~round:5 ~src:2 ~dst:0);
  check "silent again at 9" true (Faults.drops faults ~round:9 ~src:2 ~dst:0);
  check "talking at 13" false (Faults.drops faults ~round:13 ~src:2 ~dst:0);
  check "receives unaffected" false (Faults.drops faults ~round:1 ~src:0 ~dst:2)

let test_round_agreement_under_repeated_destabilization () =
  (* The coterie is monotone, so only the victim's *first* reveal is a
     destabilizing event; every later mute/talk cycle must be absorbed
     with the spec intact (the victim is faulty and exempt, but its
     reappearing messages must not perturb the correct processes). *)
  for period = 2 to 6 do
    let n = 4 in
    let rounds = 8 * period in
    let faults = Faults.rolling_mute ~n ~victim:(n - 1) ~period ~rounds in
    let corrupt p c = c + (p * 1000) in
    let trace =
      Runner.run ~corrupt_at:(corrupt_all ~n corrupt) ~faults ~rounds Round_agreement.protocol
    in
    let windows = Solve.stable_windows trace in
    check (Printf.sprintf "multiple stable windows (period %d)" period) true
      (List.length windows >= 3);
    check
      (Printf.sprintf "ftss across repeated destabilizations (period %d)" period)
      true
      (Solve.ftss_solves Round_agreement.spec ~stabilization:1 trace)
  done

let test_compiled_consensus_under_repeated_destabilization () =
  let n = 4 and f = 1 in
  let propose p = 50 + p in
  let pi = Omission_consensus.make ~n ~f ~propose in
  let valid d = d >= 50 && d < 50 + n in
  let compiled = Compiler.compile ~n pi in
  let rounds = 60 in
  let faults = Faults.rolling_mute ~n ~victim:(n - 1) ~period:7 ~rounds in
  let rng = Rng.create 5 in
  let corrupt =
    Compiler.corrupt rng ~pi ~n ~c_bound:1000 ~corrupt_s:(fun rng p s ->
        Omission_consensus.corrupt_state rng ~n p s)
  in
  let trace = Runner.run ~corrupt_at:(corrupt_all ~n corrupt) ~faults ~rounds compiled in
  let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
  check "Theorem 4 across repeated destabilizations" true
    (Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace)

(* --- Drift round agreement (synchronous, not perfectly synchronized) --- *)

let drift_config ~seed ~n ~crashes =
  {
    (Sim.default_config ~n ~seed) with
    (* Always-synchronous but imperfect: bounded delays below the local
       round length, staggered phases; no GST regime change. *)
    Sim.gst = 0;
    horizon = 2000;
    tick_interval = 10;
    delay_before_gst = (1, 8);
    delay_after_gst = (1, 8);
    crashes;
  }

let test_drift_converges_from_corruption () =
  for seed = 0 to 10 do
    let config = drift_config ~seed:(seed + 70) ~n:5 ~crashes:[] in
    let rng = Rng.create (seed + 7) in
    let result =
      Sim.run ~corrupt_at:(corrupt_all ~n:5 (Drift.corrupt rng ~bound:1_000_000)) config
        Drift.process
    in
    let report = Drift.analyze result ~config in
    check
      (Printf.sprintf "neighbourhood agreement (seed %d)" seed)
      true
      (report.Drift.converged_from <> None);
    check
      (Printf.sprintf "final spread within bound (seed %d)" seed)
      true
      (report.Drift.final_spread <= Drift.spread_bound config)
  done

let test_drift_tolerates_crashes () =
  let config = drift_config ~seed:3 ~n:5 ~crashes:[ (4, 300); (0, 900) ] in
  let rng = Rng.create 17 in
  let result =
    Sim.run ~corrupt_at:(corrupt_all ~n:5 (Drift.corrupt rng ~bound:5_000)) config Drift.process
  in
  let report = Drift.analyze result ~config in
  check "survivors reach neighbourhood agreement" true (report.Drift.converged_from <> None)

(* --- Compiler corner cases --- *)

let test_compiler_final_round_one () =
  (* fr = 1: every round is an iteration boundary; the compiled protocol
     degenerates gracefully (constant resets, round agreement intact). *)
  let n = 3 in
  let pi =
    {
      Canonical.name = "echo";
      final_round = 1;
      s_init = (fun p -> p);
      transition = (fun _ s _ _ -> s);
      decide = (fun s -> Some s);
    }
  in
  let rng = Rng.create 77 in
  let corrupt = Compiler.corrupt rng ~pi ~n ~c_bound:100 ~corrupt_s:(fun _ _ s -> s) in
  let trace =
    Runner.run ~corrupt_at:(corrupt_all ~n corrupt) ~faults:(Faults.none n) ~rounds:10
      (Compiler.compile ~n pi)
  in
  check "round agreement ftss with fr=1" true
    (Solve.ftss_solves (Compiler.round_spec ()) ~stabilization:1 trace);
  (* Every process completes an iteration every round. *)
  let cs = completions trace in
  check "one completion per process per round (after round 1)" true
    (List.length cs >= n * 8)

let test_compiled_consensus_with_crashes () =
  (* Crashes mid-run: sigma_plus exempts the dead; survivors keep
     agreeing. *)
  let n = 5 and f = 2 in
  let propose p = 50 + p in
  let pi = Omission_consensus.make ~n ~f ~propose in
  let valid d = d >= 50 && d < 50 + n in
  let faults =
    Faults.of_events ~n
      [ Faults.Crash { pid = 4; round = 7 }; Faults.Crash { pid = 3; round = 19 } ]
  in
  let trace = Runner.run ~faults ~rounds:40 (Compiler.compile ~n pi) in
  let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
  check "Theorem 4 with crash faults" true
    (Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace);
  check "trace records both crashes" true
    (Array.for_all (fun p -> trace.Trace.crashed_at.(p) <> None) [| 3; 4 |])

let suite =
  let tc = Alcotest.test_case in
  [
    ( "heartbeat-fd",
      [
        tc "pure machine: suspicion and backoff" `Quick test_heartbeat_pure_machine;
        tc "future corruption clamped" `Quick test_heartbeat_future_corruption_clamped;
        tc "converges in partial synchrony" `Quick test_heartbeat_detector_converges;
        tc "converges from corruption" `Quick test_heartbeat_detector_converges_from_corruption;
      ] );
    ( "detector-stack",
      [
        tc "clean stack reaches ◇S" `Quick test_stack_clean;
        tc "both layers corrupted still reaches ◇S" `Quick test_stack_with_both_layers_corrupted;
      ] );
    ( "reliable-broadcast",
      [
        tc "correct sender delivers everywhere" `Quick test_trb_correct_sender_delivers;
        tc "crashed sender: common bottom" `Quick test_trb_crashed_sender_agreement;
        tc "omission sender: agreement + validity" `Quick test_trb_omission_sender_agreement;
        tc "compiles to a self-stabilizing channel" `Quick test_trb_compiles;
        tc "rejects bad sender" `Quick test_trb_rejects_bad_sender;
      ] );
    ( "ablations",
      [
        tc "suspect filter is load-bearing (E8a)" `Quick test_unfiltered_compiler_breaks_under_stale_messages;
        tc "retransmit-only dissolves parked" `Quick test_retransmit_only_dissolves_parked;
        tc "round-agreement-only stays parked" `Quick test_round_agreement_only_stays_parked;
        tc "future round buffered unless round agreement" `Quick
          test_future_round_buffered_unless_round_agreement;
        tc "all styles work from clean state" `Quick test_all_styles_work_from_clean_state;
      ] );
    ( "oracle-free-consensus",
      [
        tc "recovers from corruption with a crash" `Quick test_consensus_over_heartbeats;
        tc "agreement across seeds" `Quick test_consensus_over_heartbeats_many_seeds;
      ] );
    ( "channel-corruption",
      [
        tc "forged round tags survived" `Quick test_ss_consensus_survives_forged_round_tags;
        tc "forged decide survived" `Quick test_ss_consensus_survives_forged_decide;
      ] );
    ( "compiler-corners",
      [
        tc "final_round = 1" `Quick test_compiler_final_round_one;
        tc "crashes mid-run" `Quick test_compiled_consensus_with_crashes;
      ] );
    ( "drift-round-agreement",
      [
        tc "converges from corruption" `Quick test_drift_converges_from_corruption;
        tc "tolerates crashes" `Quick test_drift_tolerates_crashes;
      ] );
    ( "repeated-destabilization",
      [
        tc "rolling mute schedule shape" `Quick test_rolling_mute_schedule_shape;
        tc "round agreement across reveals" `Quick test_round_agreement_under_repeated_destabilization;
        tc "compiled consensus across reveals" `Quick test_compiled_consensus_under_repeated_destabilization;
      ] );
  ]
