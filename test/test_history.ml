(* Tests for happened-before / coterie analysis (Definition 2.3). *)

open Ftss_util
open Ftss_sync
module Causality = Ftss_history.Causality

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let counter : (int, int) Protocol.t =
  {
    Protocol.name = "counter";
    init = (fun _ -> 0);
    broadcast = (fun _ c -> c);
    step = (fun _ c _ -> c + 1);
  }

let analyze ~faults ~rounds () = Causality.analyze (Runner.run ~faults ~rounds counter)

let test_failure_free_coterie_fills_in_one_round () =
  let a = analyze ~faults:(Faults.none 4) ~rounds:3 () in
  check "coterie at 0 is empty" true (Pidset.is_empty (Causality.coterie a ~round:0));
  check "coterie full after round 1" true
    (Pidset.equal (Pidset.full 4) (Causality.coterie a ~round:1))

let test_knowledge_base_case () =
  let a = analyze ~faults:(Faults.none 3) ~rounds:2 () in
  check "K_0(p) = {p}" true (Pidset.equal (Pidset.singleton 1) (Causality.knows a ~round:0 1))

let test_happened_before_through_relay () =
  (* 0 can reach 2 only through 1: 0->2 direct link is cut both ways. *)
  let faults =
    Faults.of_events ~n:3
      [
        Faults.Drop { src = 0; dst = 2; round = 1 };
        Faults.Drop { src = 0; dst = 2; round = 2 };
      ]
  in
  let a = analyze ~faults ~rounds:2 () in
  check "not direct in round 1" false (Causality.happened_before a ~upto:1 0 2);
  (* Round 2: 1 relays its round-1 knowledge (which includes 0) to 2. *)
  check "transitively by round 2" true (Causality.happened_before a ~upto:2 0 2)

(* The first prefix length at which [p] is in the coterie, if any. *)
let entry_round a p =
  let rec find r =
    if r > Causality.length a then None
    else if Pidset.mem p (Causality.coterie a ~round:r) then Some r
    else find (r + 1)
  in
  find 0

(* The prefix coterie never shrinks. *)
let monotone a =
  let rec go r =
    r > Causality.length a
    || Pidset.subset (Causality.coterie a ~round:(r - 1)) (Causality.coterie a ~round:r)
       && go (r + 1)
  in
  go 1

let test_isolated_process_not_in_coterie () =
  let faults = Faults.of_events ~n:3 [ Faults.Isolate { pid = 2; first = 1; last = 10 } ] in
  let a = analyze ~faults ~rounds:10 () in
  check "never enters" true (entry_round a 2 = None);
  check "others do" true (entry_round a 0 = Some 1)

let test_late_revelation_enters_coterie () =
  (* Process 2 is mute for 4 rounds, then reveals itself. *)
  let faults = Faults.of_events ~n:3 [ Faults.Mute { pid = 2; first = 1; last = 4 } ] in
  let a = analyze ~faults ~rounds:8 () in
  check_int "enters when first heard" 5
    (match entry_round a 2 with Some r -> r | None -> -1);
  let changes = Causality.changes a in
  check_int "two destabilizing events" 2 (List.length changes);
  (match changes with
  | [ (r1, s1); (r2, s2) ] ->
    check_int "first change at round 1" 1 r1;
    check "first change adds the talkers" true (Pidset.equal s1 (Pidset.of_list [ 0; 1 ]));
    check_int "second change at reveal" 5 r2;
    check "second change adds the revealed" true (Pidset.equal s2 (Pidset.singleton 2))
  | _ -> Alcotest.fail "expected exactly two changes");
  check "coterie monotone" true (monotone a)

let test_stable_intervals_partition () =
  let faults = Faults.of_events ~n:3 [ Faults.Mute { pid = 2; first = 1; last = 4 } ] in
  let a = analyze ~faults ~rounds:8 () in
  let intervals = Causality.stable_intervals a in
  Alcotest.(check (list (pair int int))) "maximal intervals" [ (0, 0); (1, 4); (5, 8) ] intervals

let test_crashed_process_leaves_correct_set () =
  let faults = Faults.of_events ~n:3 [ Faults.Crash { pid = 1; round = 2 } ] in
  let a = analyze ~faults ~rounds:5 () in
  (* Coterie quantifies over correct processes only: {0, 2}. Process 1
     broadcast in round 1, so it reached everyone and is in the coterie
     even though it later crashed. *)
  check "correct set excludes crashed" true
    (Pidset.equal (Causality.correct a) (Pidset.of_list [ 0; 2 ]));
  check "crashed-but-heard process is in coterie" true
    (Pidset.mem 1 (Causality.coterie a ~round:1))

let test_partial_reveal_does_not_enter () =
  (* 2 reaches only process 0 in round 5; 0 relays in round 6, so 2 enters
     the coterie at round 6, not 5. *)
  let events =
    Faults.Mute { pid = 2; first = 1; last = 4 }
    :: Faults.Drop { src = 2; dst = 1; round = 5 }
    :: List.concat_map
         (fun r ->
           [ Faults.Drop { src = 2; dst = 0; round = r }; Faults.Drop { src = 2; dst = 1; round = r } ])
         [ 6; 7; 8 ]
  in
  let faults = Faults.of_events ~n:3 events in
  let a = analyze ~faults ~rounds:8 () in
  check_int "enters via relay" 6
    (match entry_round a 2 with Some r -> r | None -> -1)

let prop_coterie_monotone =
  QCheck.Test.make ~name:"prefix coterie is monotone under random omissions" ~count:60
    QCheck.(triple (int_range 2 7) (int_range 1 15) small_nat)
    (fun (n, rounds, seed) ->
      let rng = Rng.create seed in
      let faults = Faults.random_omission rng ~n ~f:(Rng.int rng n) ~p_drop:0.5 ~rounds in
      let a = Causality.analyze (Runner.run ~faults ~rounds counter) in
      monotone a)

let prop_intervals_partition_range =
  QCheck.Test.make ~name:"stable intervals partition 0..rounds" ~count:60
    QCheck.(triple (int_range 2 7) (int_range 1 15) small_nat)
    (fun (n, rounds, seed) ->
      let rng = Rng.create seed in
      let faults = Faults.random_omission rng ~n ~f:(Rng.int rng n) ~p_drop:0.5 ~rounds in
      let a = Causality.analyze (Runner.run ~faults ~rounds counter) in
      let intervals = Causality.stable_intervals a in
      let rec contiguous expected = function
        | [] -> expected = rounds + 1
        | (x, y) :: rest -> x = expected && y >= x && contiguous (y + 1) rest
      in
      contiguous 0 intervals)

let prop_failure_free_everyone_enters_round_1 =
  QCheck.Test.make ~name:"failure-free: whole system enters coterie at round 1" ~count:30
    QCheck.(int_range 1 8)
    (fun n ->
      let a = Causality.analyze (Runner.run ~faults:(Faults.none n) ~rounds:3 counter) in
      Pidset.equal (Pidset.full n) (Causality.coterie a ~round:1))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "history",
      [
        tc "failure-free coterie fills in one round" `Quick test_failure_free_coterie_fills_in_one_round;
        tc "knowledge base case" `Quick test_knowledge_base_case;
        tc "happened-before through relay" `Quick test_happened_before_through_relay;
        tc "isolated process never enters coterie" `Quick test_isolated_process_not_in_coterie;
        tc "late revelation is a destabilizing event" `Quick test_late_revelation_enters_coterie;
        tc "stable intervals partition" `Quick test_stable_intervals_partition;
        tc "crashed process leaves correct set" `Quick test_crashed_process_leaves_correct_set;
        tc "partial reveal enters via relay" `Quick test_partial_reveal_does_not_enter;
        QCheck_alcotest.to_alcotest prop_coterie_monotone;
        QCheck_alcotest.to_alcotest prop_intervals_partition_range;
        QCheck_alcotest.to_alcotest prop_failure_free_everyone_enters_round_1;
      ] );
  ]
