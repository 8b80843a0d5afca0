(* Asynchronous repeated consensus tolerant of both failure types (§3).

   Two runs from the same systemically-corrupted state — every process
   parked mid-round, believing its phase messages were already sent, with
   a perfectly accurate failure detector (so no spurious suspicion ever
   breaks the wait):

   - the baseline Chandra-Toueg protocol deadlocks forever (the situation
     [KP90] identified);
   - the paper's protocol — the same machine plus periodic retransmission
     and round agreement superimposed — dissolves the deadlock and then
     decides instance after instance.

   A third run corrupts everything randomly (round variables, estimates,
   timestamps, forged decisions, detector tables) and measures the
   stabilization time of the self-stabilizing protocol.

   Run with: dune exec examples/async_consensus.exe *)

open Ftss_util
open Ftss_async

let propose p i = 100 + (((p * 13) + (i * 7)) mod 50)

let run ~corrupt ?(noise = 0.2) ~style ~seed ~n ~trusted () =
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
      ~trusted ~noise
  in
  let result =
    Sim.run ~corrupt_at:(List.init n (fun p -> (0, p, corrupt p))) config
      (Consensus.process ~n ~style ~propose ~detector:(Esfd.Oracle oracle) ())
  in
  (config, result)

let () =
  let n = 5 and trusted = 1 in
  let parked = Consensus.corrupt_parked ~round:6 (* coord(6) = trusted: nobody nacks *) in

  Format.printf "=== 1. baseline CT consensus from the parked state ===@.";
  let _, base = run ~corrupt:parked ~noise:0.0 ~style:Consensus.baseline ~seed:9 ~n ~trusted () in
  Format.printf "decisions in %d time units: %d  (deadlock)@.@." base.Sim.end_time
    (List.length (Consensus.decisions base));

  Format.printf "=== 2. self-stabilizing protocol from the same state ===@.";
  let config, ss =
    run ~corrupt:parked ~noise:0.0 ~style:Consensus.self_stabilizing ~seed:9 ~n ~trusted ()
  in
  let correct = Sim.correct_set config in
  let grouped = Consensus.per_instance (Consensus.decisions ss) ~correct in
  Format.printf "instances decided: %d, disagreements: %d@.@." (List.length grouped)
    (List.length (Consensus.disagreements grouped));

  Format.printf "=== 3. self-stabilizing protocol from random corruption ===@.";
  let rng = Rng.create 123 in
  let corrupt =
    Consensus.corrupt_random rng ~instance_bound:20 ~round_bound:30 ~value_bound:90
  in
  let config, ss2 = run ~corrupt ~style:Consensus.self_stabilizing ~seed:31 ~n ~trusted () in
  let correct = Sim.correct_set config in
  let ds = Consensus.decisions ss2 in
  let grouped = Consensus.per_instance ds ~correct in
  Format.printf "instances decided: %d@." (List.length grouped);
  Format.printf "disagreeing instances (stabilization debris): %d@."
    (List.length (Consensus.disagreements grouped));
  (match Consensus.stabilization_time ss2 ~config ~propose with
  | Sim.Stabilized t ->
    Format.printf "stabilized at: t=%d (GST was %d)@." t config.Sim.gst;
    Format.printf "instances fully decided after stabilization: %d@."
      (Consensus.fully_decided_after ds ~correct ~from:t)
  | Sim.Not_within_horizon ->
    Format.printf "did not stabilize within the horizon@.";
    exit 1
  | Sim.Vacuous ->
    Format.printf "stabilization vacuous: a correct process never decided@.";
    exit 1);
  if List.length (Consensus.decisions base) > 0 then exit 1
