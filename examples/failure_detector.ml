(* The initialization-free ◇W → ◇S transform of Figure 4 (Theorem 5).

   We corrupt every process's detector tables — huge counters, arbitrary
   dead/alive statuses — crash two processes, and watch the transform
   converge: eventually every correct process permanently suspects every
   crashed process (strong completeness) while the designated trusted
   process is never suspected again (eventual weak accuracy).

   The ◇W input is the scripted oracle, [Esfd.Oracle]; the same layer
   runs over heartbeats with [Esfd.Heartbeats] (see oracle_free.ml).

   Run with: dune exec examples/failure_detector.exe *)

open Ftss_util
open Ftss_async

let () =
  let n = 6 in
  let seed = 11 in
  let crashes = [ (4, 150); (5, 900) ] in
  let trusted = 2 in
  let config =
    {
      (Sim.default_config ~n ~seed) with
      Sim.gst = 300;
      horizon = 3000;
      tick_interval = 10;
      delay_before_gst = (1, 80);
      delay_after_gst = (1, 5);
      crashes;
    }
  in
  let crashed p = List.assoc_opt p crashes in
  let oracle =
    Ewfd.make (Rng.create (seed + 1)) ~n ~crashed ~gst:config.Sim.gst ~trusted ~noise:0.3
  in
  let rng = Rng.create 99 in
  let corrupt_at = List.init n (fun p -> (0, p, Esfd.Layer.corrupt rng ~num_bound:10_000)) in

  Format.printf "n=%d, crashes at t=150 (p4) and t=900 (p5), GST=%d, trusted=%a@."
    n config.Sim.gst Pid.pp trusted;
  Format.printf "every process starts with corrupted num/state tables@.@.";

  let result = Sim.run ~corrupt_at config (Esfd.process ~n ~source:(Esfd.Oracle oracle) ()) in

  (* Print a sampled timeline of process 0's suspect set. *)
  Format.printf "=== suspect set of p0 over time (sampled) ===@.";
  let last_printed = ref (-200) in
  List.iter
    (fun (time, pid, Esfd.Suspects set) ->
      if pid = 0 && time - !last_printed >= 200 then begin
        Format.printf "  t=%4d: %a@." time Pidset.pp set;
        last_printed := time
      end)
    result.Sim.log;

  let report = Esfd.analyze ~trusted result ~config in
  let show = function
    | Sim.Stabilized t -> "t=" ^ string_of_int t
    | Sim.Not_within_horizon -> "never (within horizon)"
    | Sim.Vacuous -> "vacuous (a correct process was never observed)"
  in
  Format.printf "@.strong completeness holds from: %s@." (show report.Esfd.completeness);
  Format.printf "eventual weak accuracy holds from: %s@." (show report.Esfd.accuracy);
  Format.printf "Theorem 5 convergence: %s@." (show report.Esfd.convergence);
  match report.Esfd.convergence with Sim.Stabilized _ -> () | _ -> exit 1
