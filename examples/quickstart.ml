(* Quickstart: make an ordinary fault-tolerant protocol self-stabilizing.

   We take the omission-tolerant flooding consensus Π (a classic
   process-failure-tolerant protocol in the paper's Figure 2 canonical
   form), push it through the Figure 3 compiler to get Π⁺, corrupt every
   process's state to simulate a systemic failure, run it under an
   omission-fault adversary, and verify Theorem 4: within 2·final_round
   rounds of the coterie stabilizing, the system behaves exactly like a
   well-initialized run — repeated consensus with agreeing decisions.

   Run with: dune exec examples/quickstart.exe *)

open Ftss_util
open Ftss_sync
open Ftss_core
open Ftss_protocols

let () =
  let n = 5 and f = 1 in
  let rng = Rng.create 2026 in

  (* 1. An ordinary process-failure-tolerant protocol Π. *)
  let propose p = 50 + p in
  let pi = Omission_consensus.make ~n ~f ~propose in
  Format.printf "Π = %s (final_round = %d)@." pi.Canonical.name pi.Canonical.final_round;

  (* 2. Compile it: Π⁺ tolerates systemic failures too. *)
  let compiled = Compiler.compile ~n pi in
  Format.printf "Π⁺ = %s (stabilization bound = %d rounds)@.@." compiled.Protocol.name
    (Compiler.stabilization_bound pi);

  (* 3. A systemic failure: every process starts from garbage. *)
  let corrupt =
    Compiler.corrupt rng ~pi ~n ~c_bound:1000
      ~corrupt_s:(fun rng p s -> Omission_consensus.corrupt_state rng ~n p s)
  in

  (* 4. Process failures on top: one process keeps omitting messages. *)
  let rounds = 40 in
  let faults = Faults.random_omission rng ~n ~f ~p_drop:0.4 ~rounds in
  Format.printf "adversary: %a@.@." Faults.pp faults;

  (* 5. Run and inspect. *)
  let corrupt_at = List.init n (fun p -> (0, p, corrupt p)) in
  let trace = Runner.run ~corrupt_at ~faults ~rounds compiled in
  Format.printf "per-iteration decisions of each correct process:@.";
  List.iter
    (fun (round, cs) ->
      let show c =
        Format.asprintf "%a:%s" Pid.pp c.Repeated.pid
          (match c.Repeated.decision with Some v -> string_of_int v | None -> "-")
      in
      Format.printf "  round %2d: %s@." round (String.concat " " (List.map show cs)))
    (Repeated.decisions_by_round trace ~faulty:(Faults.faulty faults));

  (* 6. Check Theorem 4 on this history. *)
  let valid d = d >= 50 && d < 50 + n in
  let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
  let holds =
    Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace
  in
  let measured = Solve.measured_stabilization spec trace in
  Format.printf "@.Theorem 4 (ftss-solves Σ⁺): %b@." holds;
  Format.printf "measured stabilization: %d rounds (bound: %d)@." measured
    (Compiler.stabilization_bound pi);
  if not holds then exit 1
