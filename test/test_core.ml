(* Tests for the paper's core: round agreement (Fig. 1 / Thm 3), the
   solving definitions (Defs. 2.1-2.4), the compiler (Fig. 3 / Thm 4
   mechanics) and the impossibility scenarios (Thms 1-2). *)

open Ftss_util
open Ftss_sync
open Ftss_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_ra ?corrupt ?corrupt_at ~faults ~rounds () =
  Runner.run ?corrupt ?corrupt_at ~faults ~rounds Round_agreement.protocol

let c_exn trace ~round p =
  match Trace.state_before trace ~round p with
  | Some c -> c
  | None -> Alcotest.fail "unexpected crash"

(* --- Round agreement / Theorem 3 --- *)

let test_ra_failure_free_converges_in_one_round () =
  let rng = Rng.create 1 in
  let trace =
    run_ra
      ~corrupt:(Round_agreement.corrupt_uniform rng ~bound:1_000_000)
      ~faults:(Faults.none 5) ~rounds:6 ()
  in
  let reference = c_exn trace ~round:2 0 in
  List.iter
    (fun p -> check_int "agreement at round 2" reference (c_exn trace ~round:2 p))
    (Pid.all 5);
  (* and the rate condition holds thereafter *)
  List.iter
    (fun p -> check_int "rate" (reference + 1) (c_exn trace ~round:3 p))
    (Pid.all 5)

let test_ra_jumps_to_max_plus_one () =
  let corrupt p _ = if p = 0 then 100 else 5 in
  let trace = run_ra ~corrupt ~faults:(Faults.none 2) ~rounds:2 () in
  check_int "max+1 adopted by both" 101 (c_exn trace ~round:2 0);
  check_int "max+1 adopted by both" 101 (c_exn trace ~round:2 1)

let test_ra_ftss_solves_with_stabilization_1 () =
  (* Random omissions + random corruption: Def. 2.4 with r = 1 must hold. *)
  for seed = 0 to 20 do
    let rng = Rng.create seed in
    let n = Rng.int_in rng 2 7 in
    let rounds = Rng.int_in rng 5 25 in
    let faults = Faults.random_omission rng ~n ~f:(Rng.int rng n) ~p_drop:0.4 ~rounds in
    let trace =
      run_ra ~corrupt:(Round_agreement.corrupt_uniform rng ~bound:1000) ~faults ~rounds ()
    in
    check
      (Printf.sprintf "ftss-solves (seed %d)" seed)
      true
      (Solve.ftss_solves Round_agreement.spec
         ~stabilization:Round_agreement.stabilization_time trace)
  done

let test_ra_measured_stabilization_at_most_1 () =
  for seed = 21 to 40 do
    let rng = Rng.create seed in
    let n = Rng.int_in rng 2 7 in
    let rounds = Rng.int_in rng 8 30 in
    let faults = Faults.random_omission rng ~n ~f:(Rng.int rng n) ~p_drop:0.3 ~rounds in
    let trace =
      run_ra ~corrupt:(Round_agreement.corrupt_uniform rng ~bound:10_000) ~faults ~rounds ()
    in
    let measured = Solve.measured_stabilization Round_agreement.spec trace in
    check (Printf.sprintf "measured <= 1 (seed %d)" seed) true (measured <= 1)
  done

let test_ra_reveal_destabilizes_then_restabilizes () =
  (* A mute process reveals at round 6 with a huge round variable: agreement
     must break briefly and re-establish within 1 round of the coterie
     change. *)
  let corrupt p _ = if p = 2 then 500 else 7 in
  let faults = Faults.of_events ~n:3 [ Faults.Mute { pid = 2; first = 1; last = 5 } ] in
  let trace = run_ra ~corrupt ~faults ~rounds:12 () in
  (* At round 7 the revealed value has propagated: all correct agree. *)
  check "disagreement at reveal" true (c_exn trace ~round:6 0 <> 500 + 5);
  let reference = c_exn trace ~round:7 0 in
  check_int "re-agreement one round after reveal" reference (c_exn trace ~round:7 1);
  check "ftss-solves across the reveal" true
    (Solve.ftss_solves Round_agreement.spec ~stabilization:1 trace)

let test_ra_ss_solves_failure_free () =
  let rng = Rng.create 5 in
  let trace =
    run_ra
      ~corrupt:(Round_agreement.corrupt_uniform rng ~bound:999)
      ~faults:(Faults.none 4) ~rounds:10 ()
  in
  check "ss-solves with stabilization 1" true
    (Solve.ss_solves Round_agreement.spec ~stabilization:1 trace);
  check "does not ss-solve with stabilization 0" false
    (Solve.ss_solves Round_agreement.spec ~stabilization:0 trace)

let test_ra_ft_solves_from_good_state () =
  (* From the protocol-specified initial state, with crash faults only,
     Assumption 1 holds on the whole history (Def. 2.1). *)
  let faults = Faults.of_events ~n:4 [ Faults.Crash { pid = 3; round = 2 } ] in
  let trace = run_ra ~faults ~rounds:8 () in
  check "ft-solves" true (Solve.ft_solves Round_agreement.spec trace)

(* --- Spec machinery --- *)

let test_spec_agreement_detects_violation () =
  let corrupt p _ = p in
  let faults =
    Faults.of_events ~n:3 [ Faults.Isolate { pid = 2; first = 1; last = 4 } ]
  in
  let trace = run_ra ~corrupt ~faults ~rounds:4 () in
  let spec = Spec.assumption1 ~round_of:(fun c -> c) in
  (* A one-round window has no round pair for the rate condition to
     check: only agreement can fail there. *)
  check "correct pair differs in round 1" false
    (spec.Spec.holds (Trace.sub trace ~first:1 ~last:1) ~faulty:(Pidset.singleton 2));
  check "correct pair agrees from round 2" true
    (spec.Spec.holds (Trace.sub trace ~first:2 ~last:4) ~faulty:(Pidset.singleton 2))

let test_spec_rate_detects_jump () =
  let corrupt p _ = if p = 2 then 50 else 1 in
  let trace = run_ra ~corrupt ~faults:(Faults.none 3) ~rounds:2 () in
  let spec = Spec.assumption1 ~round_of:(fun c -> c) in
  (* With p2 counted faulty, p0 and p1 agree in both rounds (1, then
     51), but both jump from 1 to 51 on hearing p2: only the rate
     condition is violated. *)
  check "rate violated by jump" false (spec.Spec.holds trace ~faulty:(Pidset.singleton 2));
  check "agreement alone holds" true
    (spec.Spec.holds (Trace.sub trace ~first:2 ~last:2) ~faulty:(Pidset.singleton 2))

let test_spec_faulty_processes_exempt () =
  let corrupt p _ = if p = 2 then 1000 else 1 in
  let faults = Faults.of_events ~n:3 [ Faults.Isolate { pid = 2; first = 1; last = 6 } ] in
  let trace = run_ra ~corrupt ~faults ~rounds:6 () in
  let spec = Round_agreement.spec in
  check "holds when deviant is declared faulty" true
    (spec.Spec.holds trace ~faulty:(Pidset.singleton 2));
  check "fails when deviant is considered correct" false
    (spec.Spec.holds trace ~faulty:Pidset.empty)

(* [Spec.conj] holds exactly when every conjunct does; the empty
   conjunction always holds. *)
let test_spec_conj () =
  let trace = run_ra ~faults:(Faults.none 2) ~rounds:3 () in
  let always = { Spec.name = "always"; holds = (fun _ ~faulty:_ -> true) } in
  let never = { Spec.name = "never"; holds = (fun _ ~faulty:_ -> false) } in
  let holds specs = (Spec.conj "c" specs).Spec.holds trace ~faulty:Pidset.empty in
  check "empty conjunction" true (holds []);
  check "all hold" true (holds [ always; Round_agreement.spec ]);
  check "one fails" false (holds [ always; never ]);
  check "order irrelevant" false (holds [ never; always ]);
  Alcotest.(check string) "named" "c" (Spec.conj "c" [ always ]).Spec.name

(* --- Compiler mechanics --- *)

let test_normalize () =
  check_int "good initial state runs round 1" 1 (Compiler.normalize ~final_round:3 1);
  check_int "c=fr runs the final round" 3 (Compiler.normalize ~final_round:3 3);
  check_int "wraps to a new iteration" 1 (Compiler.normalize ~final_round:3 4);
  check_int "corrupted zero" 3 (Compiler.normalize ~final_round:3 0);
  check_int "negative corrupted value" 2 (Compiler.normalize ~final_round:3 (-1));
  check_int "fr=1 constant" 1 (Compiler.normalize ~final_round:1 12345)

(* A toy canonical protocol: after k rounds of full-information exchange,
   decide the minimum pid whose state was ever received. *)
let toy_pi ~final_round : (Pidset.t, Pid.t) Canonical.t =
  {
    Canonical.name = "toy-min";
    final_round;
    s_init = (fun p -> Pidset.singleton p);
    transition =
      (fun _ s deliveries _k ->
        List.fold_left
          (fun acc { Protocol.payload; _ } -> Pidset.union acc payload)
          s deliveries);
    decide = (fun s -> Pidset.min_elt_opt s);
  }

let run_compiled ?corrupt ~n ~faults ~rounds pi =
  Runner.run ?corrupt ~faults ~rounds (Compiler.compile ~n pi)

let compiled_state_exn trace ~round p =
  match Trace.state_before trace ~round p with
  | Some st -> st
  | None -> Alcotest.fail "unexpected crash"

let test_compiled_failure_free_iterates () =
  let pi = toy_pi ~final_round:3 in
  let trace = run_compiled ~n:3 ~faults:(Faults.none 3) ~rounds:10 pi in
  (* Round variables advance in lockstep from the good initial state. *)
  List.iter
    (fun p ->
      let st = compiled_state_exn trace ~round:10 p in
      check_int "round variable" 10 st.Compiler.c)
    (Pid.all 3);
  (* c=1,2 -> k=2,3; reset when c reaches 3 (normalize 3 = 1): first
     iteration completes at end of the round where k=3 ran. c starts at 1 so
     k = normalize 1 = 2... *)
  ignore pi

let test_compiled_decisions_agree () =
  let pi = toy_pi ~final_round:4 in
  let trace = run_compiled ~n:4 ~faults:(Faults.none 4) ~rounds:16 pi in
  let decisions =
    List.filter_map
      (fun p ->
        let st = compiled_state_exn trace ~round:16 p in
        st.Compiler.last_decision)
      (Pid.all 4)
  in
  check_int "everyone decided" 4 (List.length decisions);
  check "all equal" true (List.for_all (fun d -> d = List.hd decisions) decisions);
  check_int "decided min pid" 0 (List.hd decisions)

let test_compiled_round_spec_ftss () =
  for seed = 50 to 65 do
    let rng = Rng.create seed in
    let n = Rng.int_in rng 2 6 in
    let fr = Rng.int_in rng 2 5 in
    let pi = toy_pi ~final_round:fr in
    let rounds = Rng.int_in rng 10 40 in
    let faults = Faults.random_omission rng ~n ~f:(Rng.int rng n) ~p_drop:0.3 ~rounds in
    let corrupt =
      Compiler.corrupt rng ~pi ~n ~c_bound:1000 ~corrupt_s:(fun rng _ _ ->
          Pidset.of_pred n (fun _ -> Rng.bool rng))
    in
    let trace = run_compiled ~corrupt ~n ~faults ~rounds pi in
    check
      (Printf.sprintf "compiled round agreement ftss (seed %d)" seed)
      true
      (Solve.ftss_solves (Compiler.round_spec ()) ~stabilization:1 trace)
  done

let test_compiled_reset_clears_suspects () =
  let pi = toy_pi ~final_round:2 in
  (* Corrupt every suspect set to "everyone"; within one completed iteration
     the sets must be reset to empty. *)
  let corrupt _ (st : (Pidset.t, Pid.t) Compiler.state) =
    { st with Compiler.suspects = Pidset.full 3 }
  in
  let trace = run_compiled ~corrupt ~n:3 ~faults:(Faults.none 3) ~rounds:6 pi in
  let st = compiled_state_exn trace ~round:6 0 in
  check "suspects empty after reset" true (Pidset.is_empty st.Compiler.suspects)

let test_compiled_suspects_stale_round_sender () =
  (* One process starts with a lagging round variable: everyone else must
     suspect it (its tags disagree), and its messages must be filtered,
     until the next iteration boundary resets suspicion. *)
  let pi = toy_pi ~final_round:5 in
  (* c = 6 keeps the next value (7) inside the same iteration, so the
     suspect set survives to the start of round 2. *)
  let corrupt p (st : (Pidset.t, Pid.t) Compiler.state) =
    if p = 2 then { st with Compiler.c = 0 } else { st with Compiler.c = 6 }
  in
  let trace = run_compiled ~corrupt ~n:3 ~faults:(Faults.none 3) ~rounds:2 pi in
  let st0 = compiled_state_exn trace ~round:2 0 in
  check "stale sender suspected" true (Pidset.mem 2 st0.Compiler.suspects);
  (* The lagging process heard round tag 6 and adopts 7. *)
  let st2 = compiled_state_exn trace ~round:2 2 in
  check_int "lagging process adopts max+1" 7 st2.Compiler.c

(* The compiled state's [completed] register indexes iterations: it
   counts the wraps of the normalized round variable to 1. From the good
   initial state (c = 1, final_round 3) the wraps close rounds 3, 6, 9;
   from a corrupted c = -1 (protocol round 2) the first wrap closes
   round 2. *)
let test_iteration_index () =
  let pi = toy_pi ~final_round:3 in
  let trace = run_compiled ~n:3 ~faults:(Faults.none 3) ~rounds:10 pi in
  List.iter
    (fun round ->
      List.iter
        (fun p ->
          check_int
            (Printf.sprintf "iterations before round %d (p%d)" round p)
            ((round - 1) / 3)
            (compiled_state_exn trace ~round p).Compiler.completed)
        (Pid.all 3))
    (List.init 10 (fun i -> i + 1));
  let iterations =
    let open Ftss_protocols in
    List.map
      (fun (round, cs) ->
        (round, List.sort_uniq compare (List.map (fun c -> c.Repeated.iteration) cs)))
      (Repeated.decisions_by_round trace ~faulty:Pidset.empty)
  in
  Alcotest.(check (list (pair int (list int))))
    "one iteration index per wrap" [ (3, [ 0 ]); (6, [ 1 ]); (9, [ 2 ]) ] iterations;
  let corrupt _ (st : (Pidset.t, Pid.t) Compiler.state) = { st with Compiler.c = -1 } in
  let trace = run_compiled ~corrupt ~n:3 ~faults:(Faults.none 3) ~rounds:5 pi in
  check_int "corrupted start: none before round 2" 0
    (compiled_state_exn trace ~round:2 0).Compiler.completed;
  check_int "corrupted start: first wrap closes round 2" 1
    (compiled_state_exn trace ~round:3 0).Compiler.completed;
  check_int "corrupted start: next wrap closes round 5" 2
    (Option.get trace.Trace.records.(4).Trace.states_after.(0)).Compiler.completed

(* [Canonical.check] enforces [final_round >= 1], and [compile] applies
   it. *)
let test_canonical_check () =
  let pi = toy_pi ~final_round:2 in
  check "a valid protocol is returned as is" true (Canonical.check pi == pi);
  Alcotest.check_raises "final_round 0 rejected"
    (Invalid_argument "toy-min: canonical protocol needs final_round >= 1") (fun () ->
      ignore (Canonical.check (toy_pi ~final_round:0)));
  check "compile rejects it too" true
    (match Compiler.compile ~n:2 (toy_pi ~final_round:0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- Impossibility scenarios --- *)

let test_theorem1_confirmed () =
  let report = Impossibility.Theorem1.run ~isolation:5 ~c_p:17 ~c_q:3 ~suffix:6 in
  check "gap persists" true (report.Impossibility.Theorem1.gap_at_suffix > 0);
  check "suffix = fresh run" true report.Impossibility.Theorem1.suffix_matches_fresh_run;
  check "reconciliation violates rate" true
    (report.Impossibility.Theorem1.rate_violation_round <> None);
  check "rate-obeying never agrees" true
    report.Impossibility.Theorem1.rate_obeying_never_agrees;
  check "theorem confirmed" true (Impossibility.Theorem1.confirms_theorem report)

let test_theorem1_various_parameters () =
  List.iter
    (fun (iso, cp, cq, suf) ->
      let report = Impossibility.Theorem1.run ~isolation:iso ~c_p:cp ~c_q:cq ~suffix:suf in
      check
        (Printf.sprintf "confirmed for iso=%d" iso)
        true
        (Impossibility.Theorem1.confirms_theorem report))
    [ (1, 2, 9, 4); (3, 1000, 1, 8); (10, 5, 6, 2) ]

let test_theorem1_rejects_equal_rounds () =
  Alcotest.check_raises "equal c" (Invalid_argument "Theorem1.run: round variables must differ")
    (fun () -> ignore (Impossibility.Theorem1.run ~isolation:2 ~c_p:4 ~c_q:4 ~suffix:4))

let test_theorem2_confirmed () =
  let report = Impossibility.Theorem2.run ~silence_threshold:3 ~c_p:11 ~c_q:2 ~rounds:10 in
  check "views identical" true report.Impossibility.Theorem2.views_identical;
  check "halting strawman halts a correct process" true
    report.Impossibility.Theorem2.self_checking_halts_correct_process;
  check "non-halting strawman violates uniformity" true
    report.Impossibility.Theorem2.never_halting_violates_uniformity;
  check "theorem confirmed" true (Impossibility.Theorem2.confirms_theorem report)

let prop_ra_ftss_random =
  QCheck.Test.make ~name:"round agreement ftss-solves under random adversaries" ~count:60
    QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (seed * 7919) in
      let n = Rng.int_in rng 2 8 in
      let rounds = Rng.int_in rng 3 30 in
      let faults = Faults.random_omission rng ~n ~f:(Rng.int rng n) ~p_drop:0.6 ~rounds in
      let trace =
        Runner.run
          ~corrupt:(Round_agreement.corrupt_uniform rng ~bound:100_000)
          ~faults ~rounds Round_agreement.protocol
      in
      Solve.ftss_solves Round_agreement.spec ~stabilization:1 trace)

let prop_compiled_round_agreement_random =
  QCheck.Test.make ~name:"compiled protocol round variables ftss-agree" ~count:40
    QCheck.small_nat
    (fun seed ->
      let rng = Rng.create ((seed * 31) + 1) in
      let n = Rng.int_in rng 2 6 in
      let fr = Rng.int_in rng 1 6 in
      let pi = toy_pi ~final_round:fr in
      let rounds = Rng.int_in rng 5 30 in
      let faults = Faults.random_omission rng ~n ~f:(Rng.int rng n) ~p_drop:0.5 ~rounds in
      let corrupt =
        Compiler.corrupt rng ~pi ~n ~c_bound:500 ~corrupt_s:(fun rng _ _ ->
            Pidset.of_pred n (fun _ -> Rng.bool rng))
      in
      let trace = Runner.run ~corrupt ~faults ~rounds (Compiler.compile ~n pi) in
      Solve.ftss_solves (Compiler.round_spec ()) ~stabilization:1 trace)

(* --- Golden determinism: seeded core executions pinned to the exact
   renderings the pre-overhaul engine produced. A drift anywhere in the
   runner, the compiler step, or the RNG consumption order changes the
   digest and fails here first. --- *)

let md5 s = Digest.to_hex (Digest.string s)

let test_golden_round_agreement () =
  let rng = Rng.create 9 in
  let faults = Faults.random_omission rng ~n:4 ~f:2 ~p_drop:0.45 ~rounds:12 in
  let trace =
    Runner.run
      ~corrupt:(Round_agreement.corrupt_uniform rng ~bound:1000)
      ~faults ~rounds:12 Round_agreement.protocol
  in
  let rendered = Format.asprintf "%a" (Trace.pp_rounds Format.pp_print_int) trace in
  check_int "rendered length" 1011 (String.length rendered);
  Alcotest.(check string) "pp_rounds digest" "8184f9f9355b5362bd7d78878221fa26"
    (md5 rendered);
  check_int "measured stabilization" 0
    (Solve.measured_stabilization Round_agreement.spec trace);
  check "ftss-solves with stabilization 1" true
    (Solve.ftss_solves Round_agreement.spec ~stabilization:1 trace)

let test_golden_compiled_consensus () =
  let open Ftss_protocols in
  let pi = Omission_consensus.make ~n:3 ~f:1 ~propose:(fun p -> 50 + p) in
  let compiled = Compiler.compile ~n:3 pi in
  let faults =
    Faults.of_events ~n:3
      [
        Faults.Mute { pid = 1; first = 1; last = 2 };
        Faults.Drop { src = 2; dst = 0; round = 5 };
      ]
  in
  let corrupt p (st : _ Compiler.state) = { st with Compiler.c = 1 + ((p + 1) * 97) } in
  let trace = Runner.run ~corrupt ~faults ~rounds:10 compiled in
  let proj =
    String.concat "\n"
      (List.concat_map
         (fun round ->
           List.map
             (fun p ->
               match Trace.state_after trace ~round p with
               | None -> Printf.sprintf "r%d p%d !" round p
               | Some st ->
                 Printf.sprintf "r%d p%d c=%d completed=%d last=%s suspects=%s" round p
                   st.Compiler.c st.Compiler.completed
                   (match st.Compiler.last_decision with
                   | None -> "-"
                   | Some d -> string_of_int d)
                   (Format.asprintf "%a" Pidset.pp st.Compiler.suspects))
             (Pid.all 3))
         (List.init 10 (fun i -> i + 1)))
  in
  check_int "projection length" 1348 (String.length proj);
  Alcotest.(check string) "state projection digest"
    "107fd1fcd25142cea3da242601ead305" (md5 proj);
  let valid d = d >= 50 && d < 53 in
  let completed, agreeing =
    Repeated.count_agreeing_iterations trace ~faulty:(Faults.faulty faults) ~valid
  in
  check_int "completed iterations" 3 completed;
  check_int "agreeing iterations" 3 agreeing;
  let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
  check "ftss-solves at the compiler's bound" true
    (Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "round-agreement",
      [
        tc "failure-free convergence in one round" `Quick test_ra_failure_free_converges_in_one_round;
        tc "jumps to max+1" `Quick test_ra_jumps_to_max_plus_one;
        tc "ftss-solves, stabilization 1 (Thm 3)" `Quick test_ra_ftss_solves_with_stabilization_1;
        tc "measured stabilization <= 1" `Quick test_ra_measured_stabilization_at_most_1;
        tc "reveal destabilizes then restabilizes" `Quick test_ra_reveal_destabilizes_then_restabilizes;
        tc "ss-solves failure-free" `Quick test_ra_ss_solves_failure_free;
        tc "ft-solves from good state" `Quick test_ra_ft_solves_from_good_state;
        QCheck_alcotest.to_alcotest prop_ra_ftss_random;
      ] );
    ( "spec",
      [
        tc "agreement detects violation" `Quick test_spec_agreement_detects_violation;
        tc "rate detects jump" `Quick test_spec_rate_detects_jump;
        tc "faulty processes exempt" `Quick test_spec_faulty_processes_exempt;
        tc "conjunction" `Quick test_spec_conj;
      ] );
    ( "compiler",
      [
        tc "normalize" `Quick test_normalize;
        tc "failure-free lockstep" `Quick test_compiled_failure_free_iterates;
        tc "decisions agree across processes" `Quick test_compiled_decisions_agree;
        tc "round spec ftss under adversaries" `Quick test_compiled_round_spec_ftss;
        tc "reset clears corrupted suspects" `Quick test_compiled_reset_clears_suspects;
        tc "stale-round sender suspected" `Quick test_compiled_suspects_stale_round_sender;
        tc "iteration index" `Quick test_iteration_index;
        tc "canonical check" `Quick test_canonical_check;
        QCheck_alcotest.to_alcotest prop_compiled_round_agreement_random;
      ] );
    ( "impossibility",
      [
        tc "Theorem 1 confirmed" `Quick test_theorem1_confirmed;
        tc "Theorem 1 parameter sweep" `Quick test_theorem1_various_parameters;
        tc "Theorem 1 rejects equal rounds" `Quick test_theorem1_rejects_equal_rounds;
        tc "Theorem 2 confirmed" `Quick test_theorem2_confirmed;
      ] );
    ( "golden",
      [
        tc "round agreement under seeded omissions" `Quick test_golden_round_agreement;
        tc "compiled omission consensus" `Quick test_golden_compiled_consensus;
      ] );
  ]
