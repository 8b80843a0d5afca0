(* Tests for the canonical example protocols and the Σ⁺ machinery:
   ft-correctness of the Π baselines, the omission counterexample against
   plain flooding, and Theorem 4 end-to-end (compiled protocols ftss-solve
   Σ⁺). *)

open Ftss_util
open Ftss_sync
open Ftss_core
open Ftss_protocols

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every process's iteration completions, in round order (no process
   counted faulty). *)
let completions trace =
  List.concat_map snd (Repeated.decisions_by_round trace ~faulty:Pidset.empty)

(* Run the ft-baseline (Figure 2 verbatim) of a canonical protocol and
   collect each non-crashed process's decision. *)
let run_ft pi ~faults =
  let protocol = Canonical.to_protocol pi in
  let rounds = pi.Canonical.final_round in
  let trace = Runner.run ~faults ~rounds protocol in
  List.filter_map
    (fun p ->
      match Trace.state_after trace ~round:rounds p with
      | Some st -> Option.map (fun d -> (p, d)) (Canonical.ft_decision pi st)
      | None -> None)
    (Pid.all (Faults.n faults))

let correct_decisions decisions ~faulty =
  List.filter (fun (p, _) -> not (Pidset.mem p faulty)) decisions

let agree decisions =
  match decisions with
  | [] -> true
  | (_, d) :: rest -> List.for_all (fun (_, d') -> d' = d) rest

(* --- Flooding consensus (crash model) --- *)

let test_flooding_failure_free () =
  let pi = Flooding_consensus.make ~f:1 ~propose:(fun p -> 10 + p) in
  let decisions = run_ft pi ~faults:(Faults.none 3) in
  check_int "everyone decides" 3 (List.length decisions);
  check "agreement" true (agree decisions);
  check_int "decides the minimum proposal" 10 (snd (List.hd decisions))

let test_flooding_tolerates_crashes () =
  for seed = 0 to 30 do
    let rng = Rng.create seed in
    let n = Rng.int_in rng 2 7 in
    let f = Rng.int rng n in
    let pi = Flooding_consensus.make ~f ~propose:(fun p -> 100 + p) in
    (* [f] distinct processes, each crashing at a random round. *)
    let faults =
      Faults.of_events ~n
        (List.map
           (fun pid -> Faults.Crash { pid; round = Rng.int_in rng 1 pi.Canonical.final_round })
           (Rng.sample rng f (Pid.all n)))
    in
    let decisions = run_ft pi ~faults in
    let correct = correct_decisions decisions ~faulty:(Faults.faulty faults) in
    check (Printf.sprintf "crash agreement (seed %d)" seed) true (agree correct);
    check
      (Printf.sprintf "validity (seed %d)" seed)
      true
      (List.for_all (fun (_, d) -> d >= 100 && d < 100 + n) correct)
  done

(* The general-omission schedule that defeats plain flooding for n = 3,
   f = 1: process 2 proposes the minimum, stays mute in round 1 and
   delivers only to process 0 in round 2, so process 0 learns the
   minimum in the last round and decides it; process 1 never does. *)
let omission_counterexample () =
  let faults =
    Faults.of_events ~n:3
      [
        Faults.Mute { pid = 2; first = 1; last = 1 };
        Faults.Drop { src = 2; dst = 1; round = 2 };
      ]
  in
  let propose p = if p = 2 then 0 else 10 + p in
  (faults, propose)

let test_flooding_broken_by_omission () =
  (* The documented counterexample: plain flooding disagrees under general
     omission. This is the negative result that motivates the suspect
     filter. *)
  let faults, propose = omission_counterexample () in
  let pi = Flooding_consensus.make ~f:1 ~propose in
  let decisions = run_ft pi ~faults in
  let correct = correct_decisions decisions ~faulty:(Faults.faulty faults) in
  check_int "both correct processes decide" 2 (List.length correct);
  check "plain flooding disagrees under omission" false (agree correct)

(* --- Omission consensus (general omission model) --- *)

let test_omission_survives_counterexample () =
  let faults, propose = omission_counterexample () in
  let pi = Omission_consensus.make ~n:3 ~f:1 ~propose in
  let decisions = run_ft pi ~faults in
  let correct = correct_decisions decisions ~faulty:(Faults.faulty faults) in
  check_int "both correct processes decide" 2 (List.length correct);
  check "suspect filter restores agreement" true (agree correct);
  (* The withheld minimum is rejected: the agreed value is a correct
     process's proposal. *)
  check "decision proposed by a correct process" true
    (List.for_all (fun (_, d) -> d = 10 || d = 11) correct)

let test_omission_random_adversaries () =
  for seed = 0 to 60 do
    let rng = Rng.create (1000 + seed) in
    let n = Rng.int_in rng 2 7 in
    let f = Rng.int rng n in
    let pi = Omission_consensus.make ~n ~f ~propose:(fun p -> 50 + p) in
    let faults =
      Faults.random_omission rng ~n ~f ~p_drop:0.5 ~rounds:pi.Canonical.final_round
    in
    let decisions = run_ft pi ~faults in
    let correct = correct_decisions decisions ~faulty:(Faults.faulty faults) in
    check (Printf.sprintf "omission agreement (seed %d)" seed) true (agree correct);
    check
      (Printf.sprintf "omission validity (seed %d)" seed)
      true
      (List.for_all (fun (_, d) -> d >= 50 && d < 50 + n) correct)
  done

let test_omission_mixed_crash_and_omission () =
  for seed = 0 to 30 do
    let rng = Rng.create (2000 + seed) in
    let n = Rng.int_in rng 3 7 in
    let f = Rng.int rng (n / 2 + 1) in
    let pi = Omission_consensus.make ~n ~f ~propose:(fun p -> p * 7) in
    let rounds = pi.Canonical.final_round in
    (* Half the faulty budget crashes, half omits. *)
    let crash_victims = Rng.sample rng (f / 2) (Pid.all n) in
    let crash_events =
      List.map
        (fun pid -> Faults.Crash { pid; round = Rng.int_in rng 1 rounds })
        crash_victims
    in
    let remaining = List.filter (fun p -> not (List.mem p crash_victims)) (Pid.all n) in
    let omit_victims = Rng.sample rng (f - List.length crash_victims) remaining in
    let omit_events =
      List.map
        (fun pid ->
          Faults.Mute { pid; first = Rng.int_in rng 1 rounds; last = rounds })
        omit_victims
    in
    let faults = Faults.of_events ~n (crash_events @ omit_events) in
    let decisions = run_ft pi ~faults in
    let correct = correct_decisions decisions ~faulty:(Faults.faulty faults) in
    check (Printf.sprintf "mixed agreement (seed %d)" seed) true (agree correct)
  done

(* --- Interactive consistency --- *)

let test_ic_failure_free_full_vector () =
  let n = 4 in
  let pi = Interactive_consistency.make ~n ~f:1 ~propose:(fun p -> p * p) in
  let decisions = run_ft pi ~faults:(Faults.none n) in
  check "agreement" true (agree decisions);
  let vector = snd (List.hd decisions) in
  Alcotest.(check (list (option int)))
    "every entry learned"
    [ Some 0; Some 1; Some 4; Some 9 ]
    vector

let test_ic_random_omission_agreement () =
  for seed = 0 to 40 do
    let rng = Rng.create (3000 + seed) in
    let n = Rng.int_in rng 2 6 in
    let f = Rng.int rng n in
    let pi = Interactive_consistency.make ~n ~f ~propose:(fun p -> 1000 + p) in
    let faults =
      Faults.random_omission rng ~n ~f ~p_drop:0.4 ~rounds:pi.Canonical.final_round
    in
    let decisions = run_ft pi ~faults in
    let correct = correct_decisions decisions ~faulty:(Faults.faulty faults) in
    check (Printf.sprintf "vector agreement (seed %d)" seed) true (agree correct);
    (* Correct processes' entries are always present and correct. *)
    let correct_set = Pidset.diff (Pidset.full n) (Faults.faulty faults) in
    List.iter
      (fun (_, vector) ->
        List.iteri
          (fun owner entry ->
            if Pidset.mem owner correct_set then
              check "correct entry learned" true (entry = Some (1000 + owner)))
          vector)
      correct
  done

(* --- Leader election --- *)

let test_leader_failure_free_elects_zero () =
  let pi = Leader_election.make ~n:5 ~f:1 in
  let decisions = run_ft pi ~faults:(Faults.none 5) in
  check "agreement" true (agree decisions);
  check_int "leader is min pid" 0 (snd (List.hd decisions))

let test_leader_random_omission_agreement () =
  for seed = 0 to 40 do
    let rng = Rng.create (4000 + seed) in
    let n = Rng.int_in rng 2 6 in
    let f = Rng.int rng n in
    let pi = Leader_election.make ~n ~f in
    let faults =
      Faults.random_omission rng ~n ~f ~p_drop:0.5 ~rounds:pi.Canonical.final_round
    in
    let decisions = run_ft pi ~faults in
    let correct = correct_decisions decisions ~faulty:(Faults.faulty faults) in
    check (Printf.sprintf "leader agreement (seed %d)" seed) true (agree correct);
    check
      (Printf.sprintf "leader is a pid (seed %d)" seed)
      true
      (List.for_all (fun (_, d) -> Pid.is_valid ~n d) correct)
  done

(* --- Atomic commitment --- *)

let test_ac_all_yes_commits () =
  let pi = Atomic_commit.make ~n:4 ~f:1 ~vote:(fun _ -> Atomic_commit.Yes) in
  let decisions = run_ft pi ~faults:(Faults.none 4) in
  check "agreement" true (agree decisions);
  check "all-yes failure-free commits" true
    (List.for_all (fun (_, o) -> o = Atomic_commit.Commit) decisions)

let test_ac_single_no_aborts_everywhere () =
  let pi =
    Atomic_commit.make ~n:4 ~f:1 ~vote:(fun p ->
        if p = 2 then Atomic_commit.No else Atomic_commit.Yes)
  in
  let decisions = run_ft pi ~faults:(Faults.none 4) in
  check "one No aborts everywhere" true
    (List.for_all (fun (_, o) -> o = Atomic_commit.Abort) decisions)

let test_ac_withheld_vote_aborts () =
  (* All vote Yes but the faulty voter stays mute: conservative Abort,
     agreed by all correct processes. *)
  let pi = Atomic_commit.make ~n:4 ~f:1 ~vote:(fun _ -> Atomic_commit.Yes) in
  let faults =
    Faults.of_events ~n:4
      [ Faults.Mute { pid = 3; first = 1; last = pi.Canonical.final_round } ]
  in
  let decisions = run_ft pi ~faults in
  let correct = correct_decisions decisions ~faulty:(Faults.faulty faults) in
  check "agreement" true (agree correct);
  check "withheld vote forces abort" true
    (List.for_all (fun (_, o) -> o = Atomic_commit.Abort) correct)

let test_ac_random_omission_agreement () =
  for seed = 0 to 40 do
    let rng = Rng.create (7000 + seed) in
    let n = Rng.int_in rng 2 6 in
    let f = Rng.int rng n in
    let vote p = if (p * 31) mod 3 = 0 then Atomic_commit.Yes else Atomic_commit.No in
    let pi = Atomic_commit.make ~n ~f ~vote in
    let faults =
      Faults.random_omission rng ~n ~f ~p_drop:0.5 ~rounds:pi.Canonical.final_round
    in
    let decisions = run_ft pi ~faults in
    let correct = correct_decisions decisions ~faulty:(Faults.faulty faults) in
    check (Printf.sprintf "commit agreement (seed %d)" seed) true (agree correct)
  done

let test_ac_compiles_with_corrupted_votes () =
  let n = 4 in
  let pi = Atomic_commit.make ~n ~f:1 ~vote:(fun _ -> Atomic_commit.Yes) in
  let compiled = Compiler.compile ~n pi in
  let rng = Rng.create 88 in
  let corrupt =
    Compiler.corrupt rng ~pi ~n ~c_bound:300 ~corrupt_s:(fun rng _ s ->
        {
          s with
          Atomic_commit.votes =
            List.fold_left
              (fun m p ->
                Pidmap.add p (if Rng.bool rng then Atomic_commit.Yes else Atomic_commit.No) m)
              Pidmap.empty (Pid.all n);
        })
  in
  let trace = Runner.run ~corrupt ~faults:(Faults.none n) ~rounds:30 compiled in
  let spec =
    Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid:(fun _ -> true) ()
  in
  check "compiled atomic commit ftss-solves Σ⁺" true
    (Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace);
  (* Post-stabilization iterations commit (everyone votes Yes). *)
  let cs = completions trace in
  let late = List.filter (fun c -> c.Repeated.round > 10) cs in
  check "late iterations commit" true
    (late <> []
    && List.for_all (fun c -> c.Repeated.decision = Some Atomic_commit.Commit) late)

(* --- KP90: terminating protocols cannot self-stabilize --- *)

let test_kp90_contrast () =
  let r = Impossibility.Kp90.run ~n:4 ~f:1 ~rounds:25 in
  check "corrupted-halted baseline never decides" false
    r.Impossibility.Kp90.baseline_ever_decides;
  check "compiled repetition decides repeatedly" true
    r.Impossibility.Kp90.compiled_decides_repeatedly;
  check "claim confirmed" true (Impossibility.Kp90.confirms_claim r)

(* --- Theorem 4 end-to-end: Π⁺ ftss-solves Σ⁺ --- *)

let compiled_omission_consensus ~n ~f =
  let propose p = 50 + p in
  let pi = Omission_consensus.make ~n ~f ~propose in
  let valid d = d >= 50 && d < 50 + n in
  (pi, Compiler.compile ~n pi, valid)

let corrupt_compiled rng ~n ~pi =
  Compiler.corrupt rng ~pi ~n ~c_bound:997
    ~corrupt_s:(fun rng p s -> Omission_consensus.corrupt_state rng ~n ~value_bound:49 p s)

let test_theorem4_failure_free_from_corruption () =
  let n = 4 in
  let pi, compiled, valid = compiled_omission_consensus ~n ~f:1 in
  let rng = Rng.create 77 in
  let trace =
    Runner.run
      ~corrupt:(corrupt_compiled rng ~n ~pi)
      ~faults:(Faults.none n) ~rounds:30 compiled
  in
  let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
  check "ftss-solves Σ⁺ with bound 2*final_round" true
    (Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace);
  (* And iterations actually complete with agreeing decisions. *)
  let completed, agreeing =
    Repeated.count_agreeing_iterations trace ~faulty:Pidset.empty ~valid
  in
  check "several iterations completed" true (completed >= 5);
  (* Corrupted early iterations may disagree; late ones must all agree. *)
  check "most iterations agree" true (agreeing >= completed - 2)

let test_theorem4_random_adversaries () =
  for seed = 0 to 40 do
    let rng = Rng.create (5000 + seed) in
    let n = Rng.int_in rng 2 6 in
    let f = Rng.int rng n in
    let pi, compiled, valid = compiled_omission_consensus ~n ~f in
    let rounds = Rng.int_in rng 10 60 in
    let faults = Faults.random_omission rng ~n ~f ~p_drop:0.4 ~rounds in
    let trace =
      Runner.run ~corrupt:(corrupt_compiled rng ~n ~pi) ~faults ~rounds compiled
    in
    let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
    check
      (Printf.sprintf "Theorem 4 (seed %d)" seed)
      true
      (Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace)
  done

let test_theorem4_late_reveal_destabilizes_briefly () =
  (* A process mute through round 12 reveals itself with a huge round
     variable; Σ⁺ must hold in both stable windows. *)
  let n = 4 in
  let pi, compiled, valid = compiled_omission_consensus ~n ~f:1 in
  let corrupt p (st : _ Compiler.state) =
    if p = 3 then { st with Compiler.c = 1_000_000 } else st
  in
  let faults = Faults.of_events ~n [ Faults.Mute { pid = 3; first = 1; last = 12 } ] in
  let trace = Runner.run ~corrupt ~faults ~rounds:40 compiled in
  let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
  check "ftss across the reveal" true
    (Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace);
  (* The correct processes end up at the revealed (huge) round numbers. *)
  (match Trace.state_after trace ~round:40 0 with
  | Some st -> check "adopted the revealed round" true (st.Compiler.c > 1_000_000)
  | None -> Alcotest.fail "process crashed unexpectedly")

let test_repeated_completions_mechanics () =
  let n = 3 in
  let pi, compiled, _ = compiled_omission_consensus ~n ~f:1 in
  let fr = pi.Canonical.final_round in
  let trace = Runner.run ~faults:(Faults.none n) ~rounds:(3 * fr) compiled in
  let cs = completions trace in
  (* From the good initial state (c = 1), iteration k completes when the
     round variable wraps: at actual rounds fr, 2*fr, 3*fr. *)
  check_int "three iterations x three processes" (3 * n) (List.length cs);
  List.iter
    (fun c ->
      check "completion rounds are multiples of final_round" true
        (c.Repeated.round mod fr = 0);
      check "decision present" true (c.Repeated.decision <> None))
    cs

let test_sigma_plus_detects_disagreement () =
  (* Sanity-check the checker itself: a trace in which two correct
     processes complete with different decisions must violate sigma_plus.
     Systemic corruption of Π's internal trust state produces one: process
     0 starts its first iteration distrusting process 1, so it rejects
     process 1's smaller proposal while process 1 decides it. *)
  let n = 2 in
  let propose p = if p = 0 then 5 else 3 in
  let pi = Omission_consensus.make ~n ~f:0 ~propose in
  let compiled = Compiler.compile ~n pi in
  let corrupt p (st : _ Compiler.state) =
    if p = 0 then
      { st with Compiler.s = { st.Compiler.s with Omission_consensus.distrusted = Pidset.singleton 1 } }
    else st
  in
  let trace = Runner.run ~corrupt ~faults:(Faults.none n) ~rounds:pi.Canonical.final_round compiled in
  (* The round variables start good, so only the Σ⁺ conjunct can fail. *)
  let spec =
    Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid:(fun _ -> true) ()
  in
  check "sigma_plus flags the disagreement" false
    (spec.Spec.holds trace ~faulty:Pidset.empty)

let prop_theorem4_sweep =
  QCheck.Test.make ~name:"Theorem 4 under random corruption and omission" ~count:40
    QCheck.small_nat
    (fun seed ->
      let rng = Rng.create ((seed * 131) + 17) in
      let n = Rng.int_in rng 2 6 in
      let f = Rng.int rng n in
      let pi, compiled, valid = compiled_omission_consensus ~n ~f in
      let rounds = Rng.int_in rng 5 50 in
      let faults = Faults.random_omission rng ~n ~f ~p_drop:0.6 ~rounds in
      let trace =
        Runner.run ~corrupt:(corrupt_compiled rng ~n ~pi) ~faults ~rounds compiled
      in
      let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
      Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "flooding-consensus",
      [
        tc "failure-free decides minimum" `Quick test_flooding_failure_free;
        tc "tolerates crashes" `Quick test_flooding_tolerates_crashes;
        tc "broken by omission (negative)" `Quick test_flooding_broken_by_omission;
      ] );
    ( "omission-consensus",
      [
        tc "survives the flooding counterexample" `Quick test_omission_survives_counterexample;
        tc "random omission adversaries" `Quick test_omission_random_adversaries;
        tc "mixed crash and omission" `Quick test_omission_mixed_crash_and_omission;
      ] );
    ( "interactive-consistency",
      [
        tc "failure-free full vector" `Quick test_ic_failure_free_full_vector;
        tc "random omission agreement" `Quick test_ic_random_omission_agreement;
      ] );
    ( "leader-election",
      [
        tc "failure-free elects min pid" `Quick test_leader_failure_free_elects_zero;
        tc "random omission agreement" `Quick test_leader_random_omission_agreement;
      ] );
    ( "atomic-commit",
      [
        tc "all-yes commits" `Quick test_ac_all_yes_commits;
        tc "single no aborts everywhere" `Quick test_ac_single_no_aborts_everywhere;
        tc "withheld vote aborts" `Quick test_ac_withheld_vote_aborts;
        tc "random omission agreement" `Quick test_ac_random_omission_agreement;
        tc "compiles with corrupted votes" `Quick test_ac_compiles_with_corrupted_votes;
      ] );
    ( "kp90",
      [ tc "terminating vs repeated contrast" `Quick test_kp90_contrast ] );
    ( "theorem-4",
      [
        tc "failure-free from corruption" `Quick test_theorem4_failure_free_from_corruption;
        tc "random adversaries" `Quick test_theorem4_random_adversaries;
        tc "late reveal destabilizes briefly" `Quick test_theorem4_late_reveal_destabilizes_briefly;
        tc "completions mechanics" `Quick test_repeated_completions_mechanics;
        tc "sigma_plus detects disagreement" `Quick test_sigma_plus_detects_disagreement;
        QCheck_alcotest.to_alcotest prop_theorem4_sweep;
      ] );
  ]
