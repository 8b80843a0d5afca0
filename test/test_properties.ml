(* Cross-cutting property tests: algebraic invariants of the building
   blocks (compiler arithmetic, trace algebra, detector merges, event
   queue ordering, solving-definition monotonicity) checked with qcheck
   over randomized inputs. *)

open Ftss_util
open Ftss_sync
open Ftss_core
open Ftss_protocols

let to_alcotest = QCheck_alcotest.to_alcotest

let corrupt_all ~n corrupt = List.init n (fun p -> (0, p, corrupt p))

(* --- Compiler arithmetic --- *)

let prop_normalize_range =
  QCheck.Test.make ~name:"normalize lands in 1..final_round" ~count:500
    QCheck.(pair (int_range 1 20) int)
    (fun (fr, c) ->
      let k = Compiler.normalize ~final_round:fr c in
      1 <= k && k <= fr)

let prop_normalize_cycles =
  QCheck.Test.make ~name:"normalize advances cyclically" ~count:500
    QCheck.(pair (int_range 1 20) (int_range (-10000) 10000))
    (fun (fr, c) ->
      let k = Compiler.normalize ~final_round:fr c in
      let k' = Compiler.normalize ~final_round:fr (c + 1) in
      if k = fr then k' = 1 else k' = k + 1)

let prop_good_initial_round_is_one =
  QCheck.Test.make ~name:"the good initial state executes protocol round 1" ~count:100
    QCheck.(int_range 1 20)
    (fun fr -> Compiler.normalize ~final_round:fr 1 = 1)

(* A Π that does nothing for [final_round] rounds: the compiled run's
   only moving parts are the round variable and the iteration register. *)
let idle_pi ~final_round : (unit, unit) Canonical.t =
  {
    Canonical.name = "idle";
    final_round;
    s_init = (fun _ -> ());
    transition = (fun _ s _ _ -> s);
    decide = (fun () -> Some ());
  }

let prop_iteration_increments_at_wrap =
  QCheck.Test.make ~name:"iteration index increments exactly at the wrap" ~count:500
    QCheck.(pair (int_range 1 20) (int_range (-10000) 10000))
    (fun (fr, c0) ->
      let corrupt p (st : (unit, unit) Compiler.state) = { st with Compiler.c = c0 + p } in
      let trace =
        Runner.run ~corrupt_at:(corrupt_all ~n:3 corrupt) ~faults:(Faults.none 3)
          ~rounds:((2 * fr) + 2)
          (Compiler.compile ~n:3 (idle_pi ~final_round:fr))
      in
      Array.for_all
        (fun record ->
          List.for_all
            (fun p ->
              match (record.Trace.states_before.(p), record.Trace.states_after.(p)) with
              | Some b, Some a ->
                let wrapped = Compiler.normalize ~final_round:fr a.Compiler.c = 1 in
                a.Compiler.completed = b.Compiler.completed + if wrapped then 1 else 0
              | _ -> false)
            (Pid.all 3))
        trace.Trace.records)

(* --- Trace algebra --- *)

let counter : (int, int) Protocol.t =
  {
    Protocol.name = "counter";
    init = (fun _ -> 0);
    broadcast = (fun _ c -> c);
    step = (fun _ c _ -> c + 1);
  }

let random_trace seed =
  let rng = Rng.create seed in
  let n = Rng.int_in rng 2 6 in
  let rounds = Rng.int_in rng 4 20 in
  let faults = Faults.random_omission rng ~n ~f:(Rng.int rng n) ~p_drop:0.4 ~rounds in
  Runner.run ~faults ~rounds counter

let prop_sub_composition =
  QCheck.Test.make ~name:"Trace.sub composes" ~count:200 QCheck.small_nat (fun seed ->
      let trace = random_trace seed in
      let len = Trace.length trace in
      if len < 4 then true
      else begin
        let outer = Trace.sub trace ~first:2 ~last:(len - 1) in
        let inner = Trace.sub outer ~first:2 ~last:(Trace.length outer) in
        let direct = Trace.sub trace ~first:3 ~last:(len - 1) in
        let states t =
          List.map
            (fun r -> Array.to_list (Trace.record t ~round:r).Trace.states_before)
            (List.init (Trace.length t) (fun i -> i + 1))
        in
        states inner = states direct && Trace.length inner = Trace.length direct
      end)

let prop_sub_preserves_omissions =
  QCheck.Test.make ~name:"Trace.sub keeps exactly the interval's omissions" ~count:200
    QCheck.small_nat (fun seed ->
      let trace = random_trace seed in
      let len = Trace.length trace in
      if len < 3 then true
      else begin
        let first = 2 and last = len - 1 in
        let sub = Trace.sub trace ~first ~last in
        let expected =
          List.filter (fun (r, _, _) -> first <= r && r <= last) trace.Trace.omissions
          |> List.length
        in
        List.length sub.Trace.omissions = expected
      end)

let prop_full_trace_blames_declared =
  QCheck.Test.make ~name:"runner traces always blame declared-faulty processes" ~count:200
    QCheck.small_nat (fun seed -> Trace.blames_declared (random_trace seed))

(* --- Causality --- *)

let prop_knowledge_monotone =
  QCheck.Test.make ~name:"knowledge sets grow monotonically" ~count:100 QCheck.small_nat
    (fun seed ->
      let trace = random_trace seed in
      let a = Ftss_history.Causality.analyze trace in
      let n = trace.Trace.n in
      List.for_all
        (fun p ->
          List.for_all
            (fun r ->
              Pidset.subset
                (Ftss_history.Causality.knows a ~round:r p)
                (Ftss_history.Causality.knows a ~round:(r + 1) p))
            (List.init (Trace.length trace) Fun.id))
        (Pid.all n))

let prop_coterie_subset_of_system =
  QCheck.Test.make ~name:"coterie members reach all correct processes" ~count:100
    QCheck.small_nat (fun seed ->
      let trace = random_trace seed in
      let a = Ftss_history.Causality.analyze trace in
      let correct = Trace.correct trace in
      let len = Trace.length trace in
      Pidset.for_all
        (fun u ->
          Pidset.for_all
            (fun q -> Ftss_history.Causality.happened_before a ~upto:len u q)
            correct)
        (Ftss_history.Causality.coterie a ~round:len))

(* --- Solving definitions --- *)

let prop_ftss_monotone_in_stabilization =
  QCheck.Test.make ~name:"ftss_solves is monotone in the stabilization time" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 31337) in
      let n = Rng.int_in rng 2 5 in
      let rounds = Rng.int_in rng 5 20 in
      let faults = Faults.random_omission rng ~n ~f:(Rng.int rng n) ~p_drop:0.5 ~rounds in
      let trace =
        Runner.run
          ~corrupt_at:(corrupt_all ~n (Round_agreement.corrupt_uniform rng ~bound:100))
          ~faults ~rounds Round_agreement.protocol
      in
      let holds r = Solve.ftss_solves Round_agreement.spec ~stabilization:r trace in
      (* If it holds with stabilization r, it holds with every r' >= r. *)
      List.for_all
        (fun r -> (not (holds r)) || (holds (r + 1) && holds (r + 3)))
        [ 0; 1; 2 ])

let prop_measured_stabilization_is_tight =
  QCheck.Test.make ~name:"measured stabilization is the least sufficient bound" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 977) in
      let n = Rng.int_in rng 2 5 in
      let rounds = Rng.int_in rng 5 20 in
      let faults = Faults.random_omission rng ~n ~f:(Rng.int rng n) ~p_drop:0.5 ~rounds in
      let trace =
        Runner.run
          ~corrupt_at:(corrupt_all ~n (Round_agreement.corrupt_uniform rng ~bound:100))
          ~faults ~rounds Round_agreement.protocol
      in
      let d = Solve.measured_stabilization Round_agreement.spec trace in
      Solve.ftss_solves Round_agreement.spec ~stabilization:d trace
      && (d = 0 || not (Solve.ftss_solves Round_agreement.spec ~stabilization:(d - 1) trace)))

let prop_ft_implies_ftss_on_failure_free_suffixless =
  QCheck.Test.make ~name:"failure-free good-start histories satisfy all three notions"
    ~count:50 QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 555) in
      let n = Rng.int_in rng 2 6 in
      let rounds = Rng.int_in rng 3 15 in
      let trace = Runner.run ~faults:(Faults.none n) ~rounds Round_agreement.protocol in
      Solve.ft_solves Round_agreement.spec trace
      && Solve.ss_solves Round_agreement.spec ~stabilization:1 trace
      && Solve.ftss_solves Round_agreement.spec ~stabilization:1 trace
      && ignore rng = ())

(* --- Simulator memorylessness (the engine-level fact behind Thm 1) --- *)

let prop_suffix_after_corruption_equals_fresh_run =
  QCheck.Test.make
    ~name:"suffix after mid-run corruption = fresh run from the corrupted state" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 424242) in
      let n = Rng.int_in rng 2 5 in
      let len = Rng.int_in rng 6 20 in
      let cut = Rng.int_in rng 2 (len - 1) in
      let offset = Rng.int rng 1000 in
      let with_corruption =
        Runner.run
          ~corrupt_at:(List.init n (fun p -> (cut, p, fun c -> c + offset)))
          ~faults:(Faults.none n) ~rounds:len Round_agreement.protocol
      in
      let suffix = Trace.sub with_corruption ~first:cut ~last:len in
      (* The fresh history commencing in the corrupted state. *)
      let start p =
        match Trace.state_before with_corruption ~round:cut p with
        | Some c -> c
        | None -> assert false
      in
      let fresh =
        Runner.run
          ~corrupt_at:(corrupt_all ~n (fun p _ -> start p))
          ~faults:(Faults.none n)
          ~rounds:(len - cut + 1)
          Round_agreement.protocol
      in
      List.for_all
        (fun p -> Ftss_core.Impossibility.view suffix p = Ftss_core.Impossibility.view fresh p)
        (Pid.all n))

(* --- Event queue vs a sorted-list model --- *)

let prop_event_queue_model =
  QCheck.Test.make ~name:"event queue drains like a stable sort" ~count:300
    QCheck.(small_list (int_range 0 50))
    (fun times ->
      let open Ftss_async in
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.push_tagged q ~time:t ~tag:0 (i, t)) times;
      let rec drain acc =
        if Event_queue.pop_step q then drain (Event_queue.out_payload q :: acc)
        else List.rev acc
      in
      let drained = drain [] in
      let model =
        List.mapi (fun i t -> (i, t)) times
        |> List.stable_sort (fun (_, a) (_, b) -> Int.compare a b)
      in
      drained = model)

(* --- Esfd merge algebra --- *)

let entry_gen =
  QCheck.Gen.(
    map3
      (fun subject num dead ->
        { Ftss_async.Esfd.subject; num; status = (if dead then Ftss_async.Esfd.Dead else Alive) })
      (int_range 0 3) (int_range 0 20) bool)

let msg_arb = QCheck.make QCheck.Gen.(list_size (int_range 0 8) entry_gen)

let esfd_obs t = List.map (fun s -> Ftss_async.Esfd.suspected t s) [ 0; 1; 2; 3 ]

let prop_esfd_receive_idempotent =
  QCheck.Test.make ~name:"Esfd.receive is idempotent" ~count:300 msg_arb (fun m ->
      let open Ftss_async in
      let t = Esfd.create ~n:4 in
      let once = Esfd.receive t m in
      let twice = Esfd.receive once m in
      esfd_obs once = esfd_obs twice)

let prop_esfd_receive_order_of_independent_msgs =
  QCheck.Test.make ~name:"Esfd.receive commutes on distinct-num messages" ~count:300
    QCheck.(pair msg_arb msg_arb)
    (fun (m1, m2) ->
      let open Ftss_async in
      (* Commutativity holds whenever no two entries carry the same num for
         the same subject (ties are resolved by arrival order). *)
      let nums m = List.map (fun e -> (e.Esfd.subject, e.Esfd.num)) m in
      let clash =
        List.exists (fun k -> List.mem k (nums m2)) (nums m1)
        || List.length (List.sort_uniq compare (nums m1)) <> List.length (nums m1)
        || List.length (List.sort_uniq compare (nums m2)) <> List.length (nums m2)
      in
      QCheck.assume (not clash);
      let t = Esfd.create ~n:4 in
      let a = Esfd.receive (Esfd.receive t m1) m2 in
      let b = Esfd.receive (Esfd.receive t m2) m1 in
      esfd_obs a = esfd_obs b)

(* --- Compiled protocols: end-to-end Theorem 4 on the other Πs --- *)

let theorem4_holds (type s d) ~seed ~n ~f (pi : (s, d) Canonical.t)
    ~(corrupt_s : Rng.t -> Pid.t -> s -> s) ~(valid : d -> bool) =
  let rng = Rng.create seed in
  let rounds = Rng.int_in rng 20 50 in
  let faults = Faults.random_omission rng ~n ~f ~p_drop:0.4 ~rounds in
  let corrupt = Compiler.corrupt rng ~pi ~n ~c_bound:1000 ~corrupt_s in
  let trace = Runner.run ~corrupt_at:(corrupt_all ~n corrupt) ~faults ~rounds (Compiler.compile ~n pi) in
  let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
  Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace

let prop_theorem4_interactive_consistency =
  QCheck.Test.make ~name:"Theorem 4 end-to-end: interactive consistency" ~count:25
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed * 3 + 1) in
      let n = Rng.int_in rng 2 5 in
      let f = Rng.int rng n in
      theorem4_holds ~seed:(seed + 4000) ~n ~f
        (Interactive_consistency.make ~n ~f ~propose:(fun p -> 1000 + p))
        ~corrupt_s:(fun rng _ s ->
          if Rng.bool rng then
            {
              s with
              Interactive_consistency.vector =
                List.fold_left
                  (fun m p -> Pidmap.add p (Rng.int rng 99 + p) m)
                  Pidmap.empty (Pid.all n);
            }
          else s)
        ~valid:(fun vector ->
          List.for_all (function Some v -> v >= 1000 && v < 1000 + n | None -> true) vector))

let prop_theorem4_leader_election =
  QCheck.Test.make ~name:"Theorem 4 end-to-end: leader election" ~count:25
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed * 5 + 2) in
      let n = Rng.int_in rng 2 5 in
      let f = Rng.int rng n in
      theorem4_holds ~seed:(seed + 6000) ~n ~f
        (Leader_election.make ~n ~f)
        ~corrupt_s:(fun rng _ s ->
          { s with Leader_election.participants = Pidset.of_pred n (fun _ -> Rng.bool rng) })
        ~valid:(fun leader -> Pid.is_valid ~n leader))

let prop_theorem4_reliable_broadcast =
  QCheck.Test.make ~name:"Theorem 4 end-to-end: reliable broadcast" ~count:25
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed * 7 + 3) in
      let n = Rng.int_in rng 2 5 in
      let f = Rng.int rng n in
      let sender = Rng.int rng n in
      theorem4_holds ~seed:(seed + 8000) ~n ~f
        (Reliable_broadcast.make ~n ~f ~sender ~value:42)
        ~corrupt_s:(fun rng _ s ->
          if Rng.bool rng then { s with Reliable_broadcast.relayed = Some (Rng.int rng 1000) }
          else s)
        ~valid:(function Some 42 | None -> true | Some _ -> false))

let suite =
  [
    ( "properties",
      [
        to_alcotest prop_normalize_range;
        to_alcotest prop_normalize_cycles;
        to_alcotest prop_good_initial_round_is_one;
        to_alcotest prop_iteration_increments_at_wrap;
        to_alcotest prop_sub_composition;
        to_alcotest prop_sub_preserves_omissions;
        to_alcotest prop_full_trace_blames_declared;
        to_alcotest prop_knowledge_monotone;
        to_alcotest prop_coterie_subset_of_system;
        to_alcotest prop_ftss_monotone_in_stabilization;
        to_alcotest prop_measured_stabilization_is_tight;
        to_alcotest prop_ft_implies_ftss_on_failure_free_suffixless;
        to_alcotest prop_suffix_after_corruption_equals_fresh_run;
        to_alcotest prop_event_queue_model;
        to_alcotest prop_esfd_receive_idempotent;
        to_alcotest prop_esfd_receive_order_of_independent_msgs;
        to_alcotest prop_theorem4_interactive_consistency;
        to_alcotest prop_theorem4_leader_election;
        to_alcotest prop_theorem4_reliable_broadcast;
      ] );
  ]
