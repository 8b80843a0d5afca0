(* The whole §3 stack with no oracle anywhere.

   The paper assumes an Eventually Weak failure detector is given. This
   example discharges that assumption inside the model and runs the full
   tower from partial synchrony alone:

       heartbeats + adaptive timeouts      (an implemented ◇W)
         → Figure 4 transform              (◇S, Theorem 5)
           → repeated CT consensus         (§3, both superimpositions)

   with *every* layer's state corrupted by the systemic failure: heartbeat
   deadlines and timeouts, the transform's num/state tables, and the
   consensus instance/round/estimate/timestamp state.

   The first two layers are [Esfd.Layer] over the [Esfd.Heartbeats]
   source: [Esfd.process] runs it alone, [Consensus.process] embeds it.

   Run with: dune exec examples/oracle_free.exe *)

open Ftss_util
open Ftss_async

let propose p i = 100 + (((p * 13) + (i * 7)) mod 50)

let () =
  let n = 5 in
  let config =
    {
      (Sim.default_config ~n ~seed:2026) with
      Sim.gst = 300;
      horizon = 5000;
      tick_interval = 10;
      delay_before_gst = (1, 60);
      delay_after_gst = (1, 4);
      crashes = [ (4, 700) ];
    }
  in

  (* First: the detector layer alone over heartbeats, fully corrupted. *)
  let rng = Rng.create 31 in
  let corrupt_at = List.init n (fun p -> (0, p, Esfd.Layer.corrupt rng ~num_bound:5_000)) in
  let layer_result =
    Sim.run ~corrupt_at config (Esfd.process ~n ~source:Esfd.Heartbeats ())
  in
  let report = Esfd.analyze layer_result ~config in
  let show = function Some t -> string_of_int t | None -> "never" in
  Format.printf "=== detector stack (heartbeat ◇W -> Figure 4 ◇S), all state corrupted ===@.";
  Format.printf "strong completeness from: t=%s@." (show report.Esfd.completeness_from);
  Format.printf "eventual weak accuracy from: t=%s@." (show report.Esfd.accuracy_from);
  Format.printf "◇S convergence: t=%s@.@." (show report.Esfd.convergence_time);

  (* Then: consensus over the same construction, also corrupted. *)
  let rng = Rng.create 32 in
  let corrupt =
    Consensus.corrupt_random rng ~instance_bound:15 ~round_bound:25 ~value_bound:90
  in
  let result =
    Sim.run ~corrupt_at:(List.init n (fun p -> (0, p, corrupt p))) config
      (Consensus.process ~n ~style:Consensus.self_stabilizing ~propose
         ~detector:Esfd.Heartbeats ())
  in
  let correct = Sim.correct_set config in
  let ds = Consensus.decisions result in
  let grouped = Consensus.per_instance ds ~correct in
  Format.printf "=== oracle-free self-stabilizing repeated consensus ===@.";
  Format.printf "instances decided by correct processes: %d@." (List.length grouped);
  Format.printf "disagreeing instances: %d@." (List.length (Consensus.disagreements grouped));
  (match Consensus.stabilization_time result ~correct ~propose ~n with
  | Some t ->
    Format.printf "stabilized at: t=%d (GST %d, crash at 700)@." t config.Sim.gst;
    Format.printf "instances fully decided after stabilization: %d@."
      (Consensus.fully_decided_after ds ~correct ~from:t)
  | None ->
    Format.printf "did not stabilize within the horizon@.";
    exit 1);
  if report.Esfd.convergence_time = None then exit 1
