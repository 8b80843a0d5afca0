(* Tests for the asynchronous substrate: the event engine, the ◇W oracle,
   the Figure-4 ◇S transform (Theorem 5) and repeated consensus (§3),
   including the baseline-deadlock vs self-stabilizing-recovery contrast. *)

open Ftss_util
open Ftss_async

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Event queue --- *)

(* The calendar queue through the simulator's own entry points, in the
   [(time, payload)] shape the reference heap returns. *)
let push q ~time e = Event_queue.push_tagged q ~time ~tag:0 e

let pop q =
  if Event_queue.pop_step q then Some (Event_queue.out_time q, Event_queue.out_payload q)
  else None

let test_queue_orders_by_time () =
  let q = Event_queue.create () in
  push q ~time:5 "c";
  push q ~time:1 "a";
  push q ~time:3 "b";
  Alcotest.(check (option (pair int string))) "first" (Some (1, "a")) (pop q);
  Alcotest.(check (option (pair int string))) "second" (Some (3, "b")) (pop q);
  Alcotest.(check (option (pair int string))) "third" (Some (5, "c")) (pop q);
  check "empty" true (pop q = None)

let test_queue_ties_resolve_by_insertion () =
  let q = Event_queue.create () in
  List.iter (fun s -> push q ~time:7 s) [ "x"; "y"; "z" ];
  let drained = List.init 3 (fun _ -> Option.get (pop q) |> snd) in
  Alcotest.(check (list string)) "FIFO within a time" [ "x"; "y"; "z" ] drained

let test_queue_interleaved_operations () =
  let q = Event_queue.create () in
  for i = 100 downto 1 do
    push q ~time:i i
  done;
  let rec drain last n =
    match pop q with
    | None -> n
    | Some (t, _) ->
      check "non-decreasing" true (t >= last);
      drain t (n + 1)
  in
  check_int "drains all" 100 (drain 0 0)

let rejected = Invalid_argument "Event_queue.push: time before the last pop"

let test_queue_rejects_push_before_last_pop () =
  let q = Event_queue.create () in
  Alcotest.check_raises "negative, before any pop" rejected (fun () -> push q ~time:(-1) "x");
  push q ~time:5 "a";
  push q ~time:9 "b";
  ignore (pop q);
  Alcotest.check_raises "before the last pop" rejected (fun () -> push q ~time:4 "c");
  (* At the last popped time is still legal, and keeps FIFO order. *)
  push q ~time:5 "c";
  Alcotest.(check (option (pair int string))) "same-time push" (Some (5, "c")) (pop q);
  Alcotest.(check (option (pair int string))) "then the rest" (Some (9, "b")) (pop q)

(* --- Differential suite: calendar queue vs. the reference heap ---

   The Reference module is the seed binary heap; the calendar queue must
   produce the identical (time, payload) stream on every schedule that
   exercises its structural cases: same-time FIFO runs, epoch rollover,
   overflow promotion, pushes at the last popped time, and reuse after a
   drain. Every push lands at or past the last popped time, the
   contract the simulator keeps. Payloads are unique ints so FIFO order
   within a time is pinned exactly, not just up to time. *)

let drain_both q r =
  let rec loop acc =
    match (pop q, Event_queue.Reference.pop r) with
    | None, None -> List.rev acc
    | Some (t, v), Some (t', v') ->
      Alcotest.(check (pair int int)) "pop agrees" (t', v') (t, v);
      loop ((t, v) :: acc)
    | Some _, None -> Alcotest.fail "calendar has events the heap lacks"
    | None, Some _ -> Alcotest.fail "heap has events the calendar lacks"
  in
  loop []

let test_queue_differential_random () =
  (* Interleaved push/pop across several rngs and scales, with times
     spanning far past the initial window so rollover, overflow and
     bucket growth all trigger. Each seed runs two rounds, each on a
     fresh queue pair drained to empty at its end. *)
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      for round = 0 to 1 do
        let q = Event_queue.create ~initial_capacity:16 () in
        let r = Event_queue.Reference.create () in
        let now = ref 0 in
        for i = 0 to 2_000 do
          (* Mostly future pushes; occasionally exactly at [now], the
             earliest legal time, into the bucket being drained. *)
          let time =
            match Rng.int rng 10 with
            | 0 -> !now
            | 1 -> !now + Rng.int rng 10_000 (* deep overflow *)
            | _ -> !now + Rng.int rng 300
          in
          let v = (round * 1_000_000) + i in
          push q ~time v;
          Event_queue.Reference.push r ~time v;
          if Rng.int rng 3 = 0 then begin
            match (pop q, Event_queue.Reference.pop r) with
            | Some (t, a), Some (t', b) ->
              Alcotest.(check (pair int int)) "interleaved pop" (t', b) (t, a);
              now := t
            | _ -> Alcotest.fail "queues diverged on emptiness"
          end
        done;
        ignore (drain_both q r)
      done)
    [ 7; 19; 233 ]

let test_queue_differential_same_time_runs () =
  (* Bursts of equal timestamps interleaved with pops: FIFO within each
     time must match the heap's insertion-sequence order exactly. *)
  let rng = Rng.create 5 in
  let q = Event_queue.create () in
  let r = Event_queue.Reference.create () in
  let v = ref 0 in
  for _ = 0 to 200 do
    let t = Rng.int rng 40 in
    for _ = 0 to Rng.int rng 8 do
      incr v;
      push q ~time:t !v;
      Event_queue.Reference.push r ~time:t !v
    done
  done;
  ignore (drain_both q r)

let test_queue_differential_epoch_rollover () =
  (* A strictly advancing hold pattern that walks the window over many
     epochs, repeatedly promoting from overflow. *)
  let rng = Rng.create 91 in
  let q = Event_queue.create ~initial_capacity:16 () in
  let r = Event_queue.Reference.create () in
  let seed_times = Array.init 64 (fun _ -> Rng.int rng 100) in
  Array.iteri
    (fun i t ->
      push q ~time:t i;
      Event_queue.Reference.push r ~time:t i)
    seed_times;
  let rng_q = Rng.create 17 and rng_r = Rng.create 17 in
  for i = 64 to 5_000 do
    (match pop q with
    | Some (t, _) -> push q ~time:(t + 1 + Rng.int rng_q 700) i
    | None -> Alcotest.fail "calendar drained early");
    match Event_queue.Reference.pop r with
    | Some (t, _) -> Event_queue.Reference.push r ~time:(t + 1 + Rng.int rng_r 700) i
    | None -> Alcotest.fail "heap drained early"
  done;
  ignore (drain_both q r)

let test_queue_reuse_after_drain () =
  (* One queue drained to empty several times, far into its timeline:
     each refill may land inside or past the window the last drain left,
     and must come out exactly as from a fresh heap. *)
  let rng = Rng.create 41 in
  let q = Event_queue.create ~initial_capacity:16 () in
  (* No earlier than the last pop: where this round's pushes start. *)
  let floor = ref 0 in
  for round = 0 to 3 do
    let r = Event_queue.Reference.create () in
    floor := !floor + Rng.int rng 100_000;
    for i = 0 to 999 do
      let time =
        match Rng.int rng 4 with
        | 0 -> !floor
        | 1 -> !floor + Rng.int rng 20_000
        | _ -> !floor + Rng.int rng 300
      in
      let v = (round * 1_000) + i in
      push q ~time v;
      Event_queue.Reference.push r ~time v;
      if Rng.int rng 3 = 0 then
        match (pop q, Event_queue.Reference.pop r) with
        | Some (t, a), Some (t', b) ->
          Alcotest.(check (pair int int)) "interleaved pop" (t', b) (t, a);
          floor := max !floor t
        | _ -> Alcotest.fail "queues diverged on emptiness"
    done;
    List.iter (fun (t, _) -> floor := max !floor t) (drain_both q r);
    check "drained" true (pop q = None)
  done

(* --- Sim engine --- *)

(* Each process counts ticks and echoes received ints back incremented. *)
let echo_process : (int, int, int) Sim.process =
  {
    Sim.name = "echo";
    init = (fun _ -> 0);
    on_tick =
      (fun ctx count ->
        if count = 0 && Sim.self ctx = 0 then Sim.send ctx 1 1;
        count + 1);
    on_message =
      (fun ctx st ~src msg ->
        Sim.observe ctx msg;
        if msg < 5 then Sim.send ctx src (msg + 1);
        st);
  }

let small_config ~seed =
  {
    (Sim.default_config ~n:2 ~seed) with
    Sim.gst = 50;
    horizon = 400;
    tick_interval = 10;
    delay_before_gst = (1, 20);
    delay_after_gst = (1, 3);
  }

let test_sim_delivers_and_logs () =
  let result = Sim.run (small_config ~seed:1) echo_process in
  let echoed = List.map (fun (_, _, v) -> v) result.Sim.log in
  Alcotest.(check (list int)) "ping-pong sequence" [ 1; 2; 3; 4; 5 ] echoed;
  check "messages delivered" true (result.Sim.delivered >= 5)

let test_sim_deterministic () =
  let r1 = Sim.run (small_config ~seed:42) echo_process in
  let r2 = Sim.run (small_config ~seed:42) echo_process in
  check "same log" true (r1.Sim.log = r2.Sim.log);
  check_int "same deliveries" r1.Sim.delivered r2.Sim.delivered

let test_sim_seed_changes_schedule () =
  let r1 = Sim.run (small_config ~seed:1) echo_process in
  let r2 = Sim.run (small_config ~seed:2) echo_process in
  (* Same logical behaviour, different timings. *)
  check "same echoes" true
    (List.map (fun (_, _, v) -> v) r1.Sim.log = List.map (fun (_, _, v) -> v) r2.Sim.log);
  check "different times" true
    (List.map (fun (t, _, _) -> t) r1.Sim.log <> List.map (fun (t, _, _) -> t) r2.Sim.log)

let test_sim_crash_stops_processing () =
  let config = { (small_config ~seed:3) with Sim.crashes = [ (1, 60) ] } in
  let result = Sim.run config echo_process in
  check "crashed final state is None" true (result.Sim.final_states.(1) = None);
  check "other process survives" true (result.Sim.final_states.(0) <> None);
  (* Ticks stop: process 1's tick count is frozen well below process 0's. *)
  check "messages to the dead are dropped" true (result.Sim.dropped_after_crash >= 0)

(* The faulty set of an asynchronous run is the processes that crash
   within the horizon; a crash scheduled after it never happens. The
   run's final states agree. *)
let test_sim_crashed_and_correct_sets () =
  let config =
    { (small_config ~seed:3) with Sim.n = 4; crashes = [ (1, 60); (3, 1_000) ] }
  in
  Alcotest.(check (list int)) "crashed" [ 1 ] (Pidset.to_list (Sim.crashed_set config));
  Alcotest.(check (list int)) "correct" [ 0; 2; 3 ] (Pidset.to_list (Sim.correct_set config));
  let result = Sim.run config echo_process in
  List.iter
    (fun p ->
      check
        (Printf.sprintf "p%d alive at the end iff correct" p)
        (Pidset.mem p (Sim.correct_set config))
        (result.Sim.final_states.(p) <> None))
    (Pid.all 4)

let test_sim_corrupt_initial_state () =
  let config = small_config ~seed:4 in
  let result = Sim.run ~corrupt_at:[ (0, 0, fun _ -> 1000) ] config echo_process in
  (* Corrupted counter means process 0 never fires its count=0 send: no
     echoes at all. *)
  check "corruption suppressed the ping" true (result.Sim.log = []);
  match result.Sim.final_states.(0) with
  | Some c -> check "still ticking from corrupted value" true (c > 1000)
  | None -> Alcotest.fail "process 0 should be alive"

(* A traced run's [Corrupt] events, as (time, pid). *)
let corrupt_events run =
  let evs = ref [] in
  let obs = Ftss_obs.Obs.create () in
  Ftss_obs.Obs.add_sink obs
    (Ftss_obs.Sink.make ~emit:(fun ev -> evs := ev :: !evs) ~close:ignore);
  let result = run obs in
  ( result,
    List.filter_map
      (fun (ev : Ftss_obs.Event.t) ->
        match ev.Ftss_obs.Event.body with
        | Ftss_obs.Event.Corrupt { pid } -> Some (ev.Ftss_obs.Event.time, pid)
        | _ -> None)
      (List.rev !evs) )

(* Each process logs the state it ticks from. *)
let tick_logger : (int, int, int) Sim.process =
  {
    Sim.name = "tick-logger";
    init = (fun _ -> 0);
    on_tick =
      (fun ctx count ->
        Sim.observe ctx count;
        count + 1);
    on_message = (fun _ st ~src:_ _ -> st);
  }

let test_sim_time0_entry_precedes_first_tick () =
  let config = { (small_config ~seed:4) with Sim.horizon = 30 } in
  let result, corrupts =
    corrupt_events (fun obs ->
        Sim.run ~obs ~corrupt_at:[ (0, 1, fun _ -> 1000) ] config tick_logger)
  in
  let first p =
    List.find_map (fun (_, q, c) -> if q = p then Some c else None) result.Sim.log
  in
  Alcotest.(check (option int)) "p1 ticks first from the rewritten state" (Some 1000) (first 1);
  Alcotest.(check (option int)) "p0 untouched" (Some 0) (first 0);
  Alcotest.(check (list (pair int int))) "one Corrupt, for p1 at t=0" [ (0, 1) ] corrupts

let test_sim_time0_entry_skips_crashed () =
  let applied = ref false in
  let config = { (small_config ~seed:4) with Sim.crashes = [ (1, 0) ] } in
  let _, corrupts =
    corrupt_events (fun obs ->
        Sim.run ~obs
          ~corrupt_at:[ (0, 1, fun s -> applied := true; s) ]
          config tick_logger)
  in
  check "rewrite not applied" false !applied;
  Alcotest.(check (list (pair int int))) "no Corrupt" [] corrupts

let test_sim_rejects_negative_corrupt_time () =
  Alcotest.check_raises "time -1" (Invalid_argument "Sim.run: corrupt_at time < 0")
    (fun () ->
      ignore (Sim.run ~corrupt_at:[ (-1, 0, Fun.id) ] (small_config ~seed:0) tick_logger))

let test_sim_spurious_messages_delivered () =
  let config = small_config ~seed:5 in
  let result = Sim.run ~spurious:[ (1, 1, 1, 3) ] config echo_process in
  (* The planted message 3 gets echoed 3,4,5. *)
  let echoed = List.map (fun (_, _, v) -> v) result.Sim.log in
  check "spurious message processed" true (List.mem 3 echoed)

let test_sim_validates_config () =
  Alcotest.check_raises "tick_interval" (Invalid_argument "Sim.run: tick_interval < 1")
    (fun () ->
      ignore (Sim.run { (small_config ~seed:0) with Sim.tick_interval = 0 } echo_process));
  Alcotest.check_raises "n beyond the tag width"
    (Invalid_argument "Sim.run: n outside 1..4096")
    (fun () -> ignore (Sim.run { (small_config ~seed:0) with Sim.n = 4097 } echo_process));
  let config = small_config ~seed:0 in
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "crash pid %d" p)
        (Invalid_argument "Sim.run: crash pid out of range")
        (fun () -> ignore (Sim.run { config with Sim.crashes = [ (p, 10) ] } echo_process)))
    [ config.Sim.n; -1 ]

(* --- Large-n smoke: the packed event tags carry 12-bit pid fields, so
   runs far beyond the old 62-process wall must route every message to
   the right process. Gossip-style: each process pings its successor ring
   neighbour once per tick until it has heard from its predecessor. --- *)

let test_sim_large_n () =
  let n = 200 in
  let ring : (bool, int, int) Sim.process =
    {
      Sim.name = "ring";
      init = (fun _ -> false);
      on_tick =
        (fun ctx heard ->
          if not heard then Sim.send ctx ((Sim.self ctx + 1) mod n) (Sim.self ctx);
          heard);
      on_message =
        (fun ctx heard ~src msg ->
          (* The tag round-trip: the delivered source must match the payload
             the sender stamped, for every pid up to n-1. *)
          if src <> msg then Alcotest.failf "tag corrupted: src %d payload %d" src msg;
          if not heard then Sim.observe ctx msg;
          true);
    }
  in
  let config =
    {
      (Sim.default_config ~n ~seed:11) with
      Sim.gst = 50;
      horizon = 2000;
      tick_interval = 10;
      delay_before_gst = (1, 20);
      delay_after_gst = (1, 3);
    }
  in
  let result = Sim.run config ring in
  (* Every process eventually hears exactly its ring predecessor. *)
  let heard = Array.make n false in
  List.iter
    (fun (_, p, msg) ->
      check_int (Printf.sprintf "p%d heard its predecessor" p) ((p + n - 1) mod n) msg;
      heard.(p) <- true)
    result.Sim.log;
  check "every process heard" true (Array.for_all Fun.id heard);
  check "no process crashed" true (Array.for_all Option.is_some result.Sim.final_states);
  (* Deterministic at this width too. *)
  let result' = Sim.run config ring in
  check "large-n run replays bit-identically" true (result.Sim.log = result'.Sim.log)

(* --- ◇W oracle --- *)

let oracle_setup ~seed ~n ~crashes ~gst ~trusted =
  let crashed p = List.assoc_opt p crashes in
  Ewfd.make (Rng.create seed) ~n ~crashed ~gst ~trusted ~noise:0.3

let test_ewfd_trusted_never_suspected_after_gst () =
  let oracle = oracle_setup ~seed:1 ~n:5 ~crashes:[ (4, 100) ] ~gst:200 ~trusted:2 in
  for at = 200 to 400 do
    List.iter
      (fun observer ->
        if observer <> 4 then
          check "trusted clear" false (Ewfd.detect oracle ~at ~observer ~subject:2))
      (Pid.all 5)
  done

let test_ewfd_weak_completeness_after_gst () =
  let oracle = oracle_setup ~seed:2 ~n:5 ~crashes:[ (4, 100) ] ~gst:200 ~trusted:2 in
  (* The designated observer (lowest-pid correct = 0) suspects the crashed
     process at every query after gst. *)
  for at = 200 to 300 do
    check "designated suspects crashed" true (Ewfd.detect oracle ~at ~observer:0 ~subject:4)
  done;
  (* And only the designated one. *)
  for at = 200 to 300 do
    check "others do not" false (Ewfd.detect oracle ~at ~observer:1 ~subject:4)
  done

let test_ewfd_rejects_crashed_trusted () =
  Alcotest.check_raises "trusted crashed"
    (Invalid_argument "Ewfd.make: the trusted process must be correct")
    (fun () -> ignore (oracle_setup ~seed:3 ~n:3 ~crashes:[ (1, 5) ] ~gst:10 ~trusted:1))

let test_ewfd_never_self_suspects () =
  let oracle = oracle_setup ~seed:4 ~n:3 ~crashes:[] ~gst:10 ~trusted:0 in
  for at = 0 to 50 do
    List.iter
      (fun p -> check "no self suspicion" false (Ewfd.detect oracle ~at ~observer:p ~subject:p))
      (Pid.all 3)
  done

(* --- Esfd pure machine --- *)

let test_esfd_merge_rule () =
  let t = Esfd.create ~n:3 in
  let t = Esfd.receive t [ { Esfd.subject = 1; num = 5; status = Esfd.Dead } ] in
  check "higher num adopted" true (Esfd.suspected t 1);
  let t = Esfd.receive t [ { Esfd.subject = 1; num = 3; status = Esfd.Alive } ] in
  check "lower num ignored" true (Esfd.suspected t 1);
  let t = Esfd.receive t [ { Esfd.subject = 1; num = 6; status = Esfd.Alive } ] in
  check "newer alive wins" false (Esfd.suspected t 1)

let test_esfd_tick_actions () =
  let t = Esfd.create ~n:3 in
  let t, msg = Esfd.tick t ~self:0 ~detect:(fun s -> s = 2) in
  check "self alive" false (Esfd.suspected t 0);
  check "detected subject dead" true (Esfd.suspected t 2);
  check "undetected unchanged" false (Esfd.suspected t 1);
  check_int "message covers all subjects" 3 (List.length msg)

let test_esfd_corruption_washed_out_by_merge () =
  (* A corrupted peer claiming a huge alive counter for a crashed process
     is overtaken once its table is merged and the observer keeps
     detecting. *)
  let rng = Rng.create 7 in
  let observer = Esfd.create ~n:2 in
  let corrupted = Esfd.corrupt rng ~num_bound:1_000 (Esfd.create ~n:2) in
  let _, claim = Esfd.tick corrupted ~self:1 ~detect:(fun _ -> false) in
  let observer = Esfd.receive observer claim in
  (* Keep detecting subject 0 as dead: after enough ticks num exceeds any
     corrupted claim... one tick suffices because the merge lifted the
     observer to the corrupted maximum first. *)
  let observer, _ = Esfd.tick observer ~self:1 ~detect:(fun s -> s = 0) in
  check "detection overtakes corrupted counter" true (Esfd.suspected observer 0)

(* --- Theorem 5 end-to-end --- *)

let esfd_config ~seed ~n ~crashes =
  {
    (Sim.default_config ~n ~seed) with
    Sim.gst = 300;
    horizon = 2500;
    tick_interval = 10;
    delay_before_gst = (1, 80);
    delay_after_gst = (1, 5);
    crashes;
  }

let corrupt_all ~n = function
  | Some corrupt -> List.init n (fun p -> (0, p, corrupt p))
  | None -> []

let run_esfd ?corrupt ?drop ~seed ~n ~crashes ~trusted () =
  let config = esfd_config ~seed ~n ~crashes in
  let crashed p = List.assoc_opt p crashes in
  let oracle =
    Ewfd.make (Rng.create (seed + 1)) ~n ~crashed ~gst:config.Sim.gst ~trusted ~noise:0.3
  in
  let result =
    Sim.run ~corrupt_at:(corrupt_all ~n corrupt) ?drop config
      (Esfd.process ~n ~source:(Esfd.Oracle oracle) ())
  in
  Esfd.analyze ~trusted result ~config

(* A fuzz-style omission adversary: a deterministic pseudo-random drop
   matrix over (epoch, link) cells, active only before the GST — exactly
   the partial-synchrony contract, under which the theorems must still
   hold. *)
let drop_matrix ~seed ~gst ~rate ~time ~src ~dst =
  time < gst && Hashtbl.hash (seed, time / 50, src, dst) mod 100 < rate

let test_theorem5_clean_start () =
  let report = run_esfd ~seed:11 ~n:5 ~crashes:[ (3, 150); (4, 700) ] ~trusted:1 () in
  check "converged" true (report.Esfd.convergence_time <> None);
  check "completeness" true (report.Esfd.completeness_from <> None);
  check "accuracy" true (report.Esfd.accuracy_from <> None)

let test_theorem5_corrupted_start () =
  (* Figure 4 requires no initialization: corrupt every counter and status
     and the transform still converges. *)
  for seed = 0 to 10 do
    let rng = Rng.create (100 + seed) in
    let corrupt _ t = Esfd.Layer.corrupt rng ~num_bound:5_000 t in
    let report =
      run_esfd ~corrupt ~seed:(200 + seed) ~n:5 ~crashes:[ (4, 100) ] ~trusted:2 ()
    in
    check
      (Printf.sprintf "Theorem 5 under corruption (seed %d)" seed)
      true
      (report.Esfd.convergence_time <> None)
  done

let test_theorem5_strong_completeness_is_the_transforms_work () =
  (* The ◇W oracle deliberately lets only one designated observer suspect
     the crashed process; every OTHER correct process's final detector
     state must still mark it dead — that propagation is exactly what the
     Figure 4 transform adds (weak -> strong completeness). *)
  let n = 5 and crashes = [ (4, 150) ] in
  let config = esfd_config ~seed:61 ~n ~crashes in
  let crashed p = List.assoc_opt p crashes in
  let oracle =
    Ewfd.make (Rng.create 62) ~n ~crashed ~gst:config.Sim.gst ~trusted:2 ~noise:0.0
  in
  let result = Sim.run config (Esfd.process ~n ~source:(Esfd.Oracle oracle) ()) in
  (* With zero noise, only the designated observer (p0, the lowest-pid
     correct process) ever receives detect = true; p1..p3 rely entirely on
     the broadcast-merge. *)
  List.iter
    (fun p ->
      match result.Sim.final_states.(p) with
      | Some t ->
        Alcotest.(check bool)
          (Printf.sprintf "p%d suspects the crashed process" p)
          true (Esfd.Layer.suspected t 4)
      | None -> ())
    [ 0; 1; 2; 3 ]

let test_theorem5_no_crashes () =
  let report = run_esfd ~seed:31 ~n:4 ~crashes:[] ~trusted:0 () in
  check "accuracy alone also converges" true (report.Esfd.convergence_time <> None)

let test_sim_adversary_drops_are_counted_and_deterministic () =
  let config = small_config ~seed:8 in
  let drop = drop_matrix ~seed:8 ~gst:config.Sim.gst ~rate:40 in
  let r1 = Sim.run ~drop config echo_process in
  let r2 = Sim.run ~drop config echo_process in
  check "adversary dropped something" true (r1.Sim.dropped_by_adversary > 0);
  check_int "drop count deterministic" r1.Sim.dropped_by_adversary
    r2.Sim.dropped_by_adversary;
  check "survivor schedule deterministic" true (r1.Sim.log = r2.Sim.log);
  let clean = Sim.run config echo_process in
  check_int "no adversary, no adversary drops" 0 clean.Sim.dropped_by_adversary

let prop_theorem5_under_random_drop_matrices =
  QCheck.Test.make
    ~name:"Theorem 5: eventual strong accuracy and completeness under drops"
    ~count:8 QCheck.small_nat
    (fun seed ->
      let crashes = [ (4, 150) ] in
      let drop = drop_matrix ~seed ~gst:300 ~rate:30 in
      let report =
        run_esfd ~drop ~seed:(500 + seed) ~n:5 ~crashes ~trusted:1 ()
      in
      (* Drops cease at the GST, so the transform must still converge:
         every correct process eventually suspects the crashed one and
         permanently trusts the correct ones. *)
      report.Esfd.convergence_time <> None
      && report.Esfd.completeness_from <> None
      && report.Esfd.accuracy_from <> None)

(* --- Repeated consensus --- *)

let propose p i = 100 + (((p * 13) + (i * 7)) mod 50)

let consensus_config ~seed ~n ~crashes =
  {
    (Sim.default_config ~n ~seed) with
    Sim.gst = 300;
    horizon = 4000;
    tick_interval = 10;
    delay_before_gst = (1, 60);
    delay_after_gst = (1, 4);
    crashes;
  }

let run_consensus ?corrupt ?drop ?(noise = 0.2) ~style ~seed ~n ~crashes ~trusted () =
  let config = consensus_config ~seed ~n ~crashes in
  let crashed p = List.assoc_opt p crashes in
  let oracle =
    Ewfd.make (Rng.create (seed + 7)) ~n ~crashed ~gst:config.Sim.gst ~trusted ~noise
  in
  let result =
    Sim.run ~corrupt_at:(corrupt_all ~n corrupt) ?drop config
      (Consensus.process ~n ~style ~propose ~detector:(Esfd.Oracle oracle) ())
  in
  (config, result)

let test_consensus_baseline_clean_decides () =
  let config, result =
    run_consensus ~style:Consensus.baseline ~seed:5 ~n:5 ~crashes:[] ~trusted:1 ()
  in
  let correct = Sim.correct_set config in
  let ds = Consensus.decisions result in
  let grouped = Consensus.per_instance ds ~correct in
  check "instances decided" true (List.length grouped >= 3);
  Alcotest.(check (list int)) "no disagreement" [] (Consensus.disagreements grouped);
  Alcotest.(check (list int)) "all valid" [] (Consensus.invalid_instances grouped ~propose ~n:5)

let test_consensus_ss_clean_decides () =
  let config, result =
    run_consensus ~style:Consensus.self_stabilizing ~seed:6 ~n:5 ~crashes:[] ~trusted:1 ()
  in
  let correct = Sim.correct_set config in
  let grouped = Consensus.per_instance (Consensus.decisions result) ~correct in
  check "instances decided" true (List.length grouped >= 3);
  Alcotest.(check (list int)) "no disagreement" [] (Consensus.disagreements grouped);
  Alcotest.(check (list int)) "all valid" [] (Consensus.invalid_instances grouped ~propose ~n:5)

let test_consensus_ss_tolerates_crashes () =
  let crashes = [ (0, 200); (4, 800) ] in
  let config, result =
    run_consensus ~style:Consensus.self_stabilizing ~seed:7 ~n:5 ~crashes ~trusted:2 ()
  in
  let correct = Sim.correct_set config in
  let ds = Consensus.decisions result in
  let grouped = Consensus.per_instance ds ~correct in
  Alcotest.(check (list int)) "no disagreement" [] (Consensus.disagreements grouped);
  check "progress after both crashes" true
    (Consensus.fully_decided_after ds ~correct ~from:1000 >= 2)

let test_consensus_ss_recovers_from_random_corruption () =
  for seed = 0 to 8 do
    let rng = Rng.create (300 + seed) in
    let corrupt =
      Consensus.corrupt_random rng ~instance_bound:20 ~round_bound:30 ~value_bound:90
    in
    let config, result =
      run_consensus ~corrupt ~style:Consensus.self_stabilizing ~seed:(400 + seed) ~n:5
        ~crashes:[ (4, 600) ] ~trusted:2 ()
    in
    let correct = Sim.correct_set config in
    let stab = Consensus.stabilization_time result ~correct ~propose ~n:5 in
    check (Printf.sprintf "stabilizes (seed %d)" seed) true (stab <> None);
    let from = Option.get stab in
    check
      (Printf.sprintf "useful work after stabilization (seed %d)" seed)
      true
      (Consensus.fully_decided_after (Consensus.decisions result) ~correct ~from >= 1)
  done

let test_consensus_baseline_deadlocks_when_parked () =
  (* Park everyone mid-round waiting for messages that were never sent,
     with the coordinator of that round being a never-suspected correct
     process. The detector is perfectly accurate (noise 0 — which ◇W
     permits), so no spurious suspicion ever unblocks the wait: the
     baseline makes no further progress, ever. This is exactly the
     deadlock [KP90] identified and the reason the paper's protocol
     re-sends until a phase completes. *)
  let n = 5 in
  let trusted = 1 in
  let round = 6 in
  (* coord(6) = 1 = trusted *)
  let _, result =
    run_consensus
      ~corrupt:(Consensus.corrupt_parked ~round)
      ~noise:0.0 ~style:Consensus.baseline ~seed:9 ~n ~crashes:[] ~trusted ()
  in
  check_int "no decisions at all" 0 (List.length (Consensus.decisions result))

let test_consensus_ss_dissolves_the_same_deadlock () =
  let n = 5 in
  let trusted = 1 in
  let round = 6 in
  let config, result =
    run_consensus
      ~corrupt:(Consensus.corrupt_parked ~round)
      ~noise:0.0 ~style:Consensus.self_stabilizing ~seed:9 ~n ~crashes:[] ~trusted ()
  in
  let correct = Sim.correct_set config in
  let grouped = Consensus.per_instance (Consensus.decisions result) ~correct in
  check "retransmission dissolves the deadlock" true (List.length grouped >= 3);
  Alcotest.(check (list int)) "no disagreement" [] (Consensus.disagreements grouped)

let test_consensus_deterministic () =
  let _, r1 =
    run_consensus ~style:Consensus.self_stabilizing ~seed:10 ~n:4 ~crashes:[] ~trusted:0 ()
  in
  let _, r2 =
    run_consensus ~style:Consensus.self_stabilizing ~seed:10 ~n:4 ~crashes:[] ~trusted:0 ()
  in
  check "identical logs" true (r1.Sim.log = r2.Sim.log)

let prop_consensus_agreement_under_random_drop_matrices =
  QCheck.Test.make
    ~name:"consensus agreement and validity under drop matrices" ~count:8
    QCheck.small_nat
    (fun seed ->
      let drop = drop_matrix ~seed:(seed * 31) ~gst:300 ~rate:25 in
      let config, result =
        run_consensus ~drop ~style:Consensus.self_stabilizing ~seed:(600 + seed)
          ~n:5 ~crashes:[] ~trusted:(seed mod 5) ()
      in
      let correct = Sim.correct_set config in
      let grouped = Consensus.per_instance (Consensus.decisions result) ~correct in
      (* Safety must hold whatever the adversary dropped, and the
         post-GST drop-free suffix must restore progress. *)
      Consensus.disagreements grouped = []
      && Consensus.invalid_instances grouped ~propose ~n:5 = []
      && List.length grouped >= 1)

let prop_ss_consensus_random_corruption =
  QCheck.Test.make ~name:"ss consensus stabilizes under random corruption" ~count:10
    QCheck.small_nat
    (fun seed ->
      let rng = Rng.create ((seed * 97) + 5) in
      let n = 3 + (seed mod 3) in
      let corrupt =
        Consensus.corrupt_random rng ~instance_bound:10 ~round_bound:20 ~value_bound:90
      in
      let config, result =
        run_consensus ~corrupt ~style:Consensus.self_stabilizing ~seed:(seed + 800) ~n
          ~crashes:[] ~trusted:(seed mod n) ()
      in
      let correct = Sim.correct_set config in
      match Consensus.stabilization_time result ~correct ~propose ~n with
      | None -> false
      | Some from ->
        Consensus.fully_decided_after (Consensus.decisions result) ~correct ~from >= 1)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "event-queue",
      [
        tc "orders by time" `Quick test_queue_orders_by_time;
        tc "ties resolve by insertion" `Quick test_queue_ties_resolve_by_insertion;
        tc "interleaved operations" `Quick test_queue_interleaved_operations;
        tc "rejects a push before the last pop" `Quick test_queue_rejects_push_before_last_pop;
        tc "differential vs reference heap (random)" `Quick test_queue_differential_random;
        tc "differential same-time FIFO runs" `Quick test_queue_differential_same_time_runs;
        tc "differential epoch rollover + overflow" `Quick test_queue_differential_epoch_rollover;
        tc "reusable after draining" `Quick test_queue_reuse_after_drain;
      ] );
    ( "sim",
      [
        tc "delivers and logs" `Quick test_sim_delivers_and_logs;
        tc "deterministic" `Quick test_sim_deterministic;
        tc "seed changes schedule only" `Quick test_sim_seed_changes_schedule;
        tc "crash stops processing" `Quick test_sim_crash_stops_processing;
        tc "crashed and correct sets" `Quick test_sim_crashed_and_correct_sets;
        tc "corrupt initial state" `Quick test_sim_corrupt_initial_state;
        tc "time-0 entry precedes the first tick" `Quick test_sim_time0_entry_precedes_first_tick;
        tc "time-0 entry skips a process crashed at 0" `Quick test_sim_time0_entry_skips_crashed;
        tc "rejects a negative corrupt_at time" `Quick test_sim_rejects_negative_corrupt_time;
        tc "spurious messages delivered" `Quick test_sim_spurious_messages_delivered;
        tc "validates config" `Quick test_sim_validates_config;
        tc "large-n ring routes every tag (n=200)" `Quick test_sim_large_n;
        tc "adversary drops counted and deterministic" `Quick
          test_sim_adversary_drops_are_counted_and_deterministic;
      ] );
    ( "ewfd",
      [
        tc "trusted never suspected after gst" `Quick test_ewfd_trusted_never_suspected_after_gst;
        tc "weak completeness after gst" `Quick test_ewfd_weak_completeness_after_gst;
        tc "rejects crashed trusted" `Quick test_ewfd_rejects_crashed_trusted;
        tc "never self-suspects" `Quick test_ewfd_never_self_suspects;
      ] );
    ( "esfd",
      [
        tc "merge rule" `Quick test_esfd_merge_rule;
        tc "tick actions" `Quick test_esfd_tick_actions;
        tc "corruption washed out" `Quick test_esfd_corruption_washed_out_by_merge;
        tc "Theorem 5: clean start" `Quick test_theorem5_clean_start;
        tc "Theorem 5: corrupted start" `Quick test_theorem5_corrupted_start;
        tc "Theorem 5: no crashes" `Quick test_theorem5_no_crashes;
        tc "Theorem 5: strong completeness is the transform's work" `Quick
          test_theorem5_strong_completeness_is_the_transforms_work;
        QCheck_alcotest.to_alcotest prop_theorem5_under_random_drop_matrices;
      ] );
    ( "async-consensus",
      [
        tc "baseline decides from clean state" `Quick test_consensus_baseline_clean_decides;
        tc "ss decides from clean state" `Quick test_consensus_ss_clean_decides;
        tc "ss tolerates crashes" `Quick test_consensus_ss_tolerates_crashes;
        tc "ss recovers from random corruption" `Quick test_consensus_ss_recovers_from_random_corruption;
        tc "baseline deadlocks when parked" `Quick test_consensus_baseline_deadlocks_when_parked;
        tc "ss dissolves the same deadlock" `Quick test_consensus_ss_dissolves_the_same_deadlock;
        tc "deterministic" `Quick test_consensus_deterministic;
        QCheck_alcotest.to_alcotest prop_ss_consensus_random_corruption;
        QCheck_alcotest.to_alcotest prop_consensus_agreement_under_random_drop_matrices;
      ] );
  ]
