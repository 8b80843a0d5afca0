(* Repeated consensus surviving a mid-run systemic failure.

   The motivating scenario of the paper: a long-lived replicated service
   (modelled as repeated consensus) hit by a memory-corrupting event while
   process failures keep occurring. We run the compiled protocol, corrupt
   every process at round 25, and watch the coterie analysis and decision
   stream: the corruption knocks the system out for at most the
   stabilization bound, then iterations resume exactly as before.

   Run with: dune exec examples/repeated_consensus.exe *)

open Ftss_util
open Ftss_sync
open Ftss_core
open Ftss_protocols
module Causality = Ftss_history.Causality

let () =
  let n = 4 and f = 1 in
  let rng = Rng.create 7 in
  let propose p = 10 + (p * p) in
  let pi = Omission_consensus.make ~n ~f ~propose in
  let compiled = Compiler.compile ~n pi in
  let rounds = 60 in

  (* One process is send-omission faulty on and off through the run. *)
  let faults =
    Faults.of_events ~n
      [
        Faults.Mute { pid = 3; first = 5; last = 9 };
        Faults.Mute { pid = 3; first = 30; last = 34 };
      ]
  in

  (* The systemic failure strikes mid-execution, at round 25. *)
  let corrupt_at =
    List.init n (fun p ->
        ( 25,
          p,
          fun (st : _ Compiler.state) ->
            {
              st with
              Compiler.c = 400 + Rng.int rng 100;
              suspects = Pidset.of_pred n (fun _ -> Rng.bool rng);
            } ))
  in

  let trace = Runner.run ~corrupt_at ~faults ~rounds compiled in

  Format.printf "=== decision stream (round: pid:decision ...) ===@.";
  List.iter
    (fun (round, cs) ->
      let show c =
        Format.asprintf "%a:%s" Pid.pp c.Repeated.pid
          (match c.Repeated.decision with Some v -> string_of_int v | None -> "-")
      in
      Format.printf "  %2d: %s@." round (String.concat "  " (List.map show cs)))
    (Repeated.decisions_by_round trace ~faulty:(Faults.faulty faults));

  Format.printf "@.=== coterie timeline ===@.";
  let analysis = Causality.analyze trace in
  List.iter
    (fun (r, entered) ->
      Format.printf "  round %2d: %a entered the coterie@." r Pidset.pp entered)
    (Causality.changes analysis);
  List.iter
    (fun (x, y) -> Format.printf "  stable window: prefix rounds %d..%d@." x y)
    (Causality.stable_intervals analysis);

  let valid d = List.exists (fun p -> propose p = d) (Pid.all n) in
  let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
  (* A mid-run systemic failure makes the whole trace a concatenation of
     two histories; Definition 2.4 applies to each. Check the suffix that
     starts at the corruption. *)
  let suffix = Trace.sub trace ~first:25 ~last:rounds in
  let holds_suffix =
    Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) suffix
  in
  let measured = Solve.measured_stabilization spec suffix in
  Format.printf "@.suffix after mid-run corruption ftss-satisfies Σ⁺: %b@." holds_suffix;
  Format.printf "measured stabilization in the suffix: %d (bound %d)@." measured
    (Compiler.stabilization_bound pi);
  if not holds_suffix then exit 1
