(* ftss — command-line driver for the protocols and experiments.

   Subcommands:
     round-agreement   run Figure 1 under corruption + omission faults
     compile           run a compiled protocol (Figure 3) and check Σ⁺
     esfd              run the Figure 4 detector transform (Theorem 5)
     consensus         run asynchronous repeated consensus (§3)
     impossibility     execute the Theorem 1 / Theorem 2 scenarios
     check             exhaustively model-check a theorem over every
                       enumerated schedule × corruption class (ftss_check)
     replay            re-execute a shrunk counterexample file
     explain           causal provenance of an outcome event in a trace
     serve             run the replicated service tower under a workload
                       (--slo arms streaming monitors; alarms fail the run)
     watch             serve with a live monitor-plane dashboard
     profile           self-profile the stack; export Perfetto/flamegraph
     bench-diff        compare two BENCH_*.json gauge snapshots

   Every subcommand exits non-zero when its theorem check fails, so the
   CLI doubles as a CI gate. *)

open Ftss_util
open Ftss_sync
open Ftss_core
open Ftss_protocols
open Cmdliner

(* --- shared options --- *)

let n_arg =
  Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let f_arg =
  Arg.(value & opt int 1 & info [ "f" ] ~docv:"F" ~doc:"Bound on faulty processes.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic RNG seed.")

let rounds_arg =
  Arg.(value & opt int 40 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to simulate.")

let p_drop_arg =
  Arg.(
    value
    & opt float 0.4
    & info [ "p-drop" ] ~docv:"P" ~doc:"Per-link omission probability for faulty links.")


(* --- observability options --- *)

(* Where a run's event stream goes: the --trace-out/--metrics-out pair. *)
type obs_out = { trace_out : string option; metrics_out : string option }

let obs_term =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE.jsonl"
          ~doc:"Write the run's structured event trace as JSON Lines to $(docv).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE.json"
          ~doc:"Write the metrics registry snapshot as JSON to $(docv).")
  in
  Term.(
    const (fun trace_out metrics_out -> { trace_out; metrics_out })
    $ trace_out $ metrics_out)

(* Builds the hub when an output was requested (or [~always], when the
   caller attaches consumers of its own), runs [f] with it, then flushes the
   trace sink and writes the metrics snapshot. Without either flag [f
   None] runs with zero instrumentation overhead. Events are folded into
   the registry only when a metrics file is asked for; a written trace
   is the plain event stream, whose happened-before [ftss explain]
   rebuilds offline. *)
let with_obs ?(always = false) ?threadsafe { trace_out; metrics_out } f =
  if trace_out = None && metrics_out = None && not always then f None
  else
    let obs = Ftss_obs.Obs.create ~record:(metrics_out <> None) ?threadsafe () in
    (match trace_out with
    | Some path -> Ftss_obs.Obs.add_sink obs (Ftss_obs.Sink.jsonl_file path)
    | None -> ());
    Fun.protect
      ~finally:(fun () ->
        Ftss_obs.Obs.close obs;
        match metrics_out with
        | Some path ->
          let oc = open_out path in
          output_string oc
            (Ftss_obs.Json.to_string (Ftss_obs.Metrics.to_json (Ftss_obs.Obs.metrics obs)));
          output_char oc '\n';
          close_out oc
        | None -> ())
      (fun () -> f (Some obs))

(* --- provenance helpers (ftss explain, counterexample explanations) --- *)

module Prov = Ftss_prov.Prov

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE.dot"
        ~doc:"Write the provenance cone of the outcome as Graphviz to $(docv).")

let last_located_event t =
  let rec go i =
    if i < 0 then None
    else match Prov.located t i with Some _ -> Some i | None -> go (i - 1)
  in
  go (Prov.length t - 1)

(* The outcome to explain when none was named: the last decision if the
   trace has one, else the last located event. *)
let default_targets t =
  match Prov.resolve t Prov.Last_decide with
  | Ok ids -> Some ids
  | Error _ -> Option.map (fun i -> [ i ]) (last_located_event t)

let write_dot path t targets =
  let ids = Prov.cone t targets in
  let oc = open_out path in
  output_string oc (Prov.to_dot ~targets t ids);
  close_out oc

(* Re-runs a counterexample under an in-memory recording hub and prints
   the causal explanation of its outcome; optionally exports the cone. *)
let explain_counterexample ?dot f =
  let evs = ref [] in
  let obs = Ftss_obs.Obs.create ~record:false () in
  Ftss_obs.Obs.add_sink obs
    (Ftss_obs.Sink.make ~emit:(fun ev -> evs := ev :: !evs) ~close:ignore);
  f obs;
  let t = Prov.of_events (List.rev !evs) in
  match default_targets t with
  | None -> Format.printf "explanation: trace recorded no located events@."
  | Some targets ->
    Format.printf "why (causal provenance of the outcome):@.%a@." Prov.pp_explain
      (t, targets);
    (match dot with
    | Some path ->
      write_dot path t targets;
      Format.printf "provenance cone written to %s (Graphviz)@." path
    | None -> ())

(* The initial-state corruption schedule of a command that corrupts
   every process: one entry per pid, in pid order. *)
let corrupt_all ~n corrupt = List.init n (fun p -> (0, p, corrupt p))

(* --- round-agreement --- *)

let dump_arg =
  Arg.(value & flag & info [ "dump" ] ~doc:"Dump the full round-by-round trace.")

let round_agreement_cmd =
  let run n f seed rounds p_drop dump outs =
    with_obs outs @@ fun obs ->
    let rng = Rng.create seed in
    let faults = Faults.random_omission rng ~n ~f ~p_drop ~rounds in
    let trace =
      Runner.run ?obs
        ~corrupt_at:(corrupt_all ~n (Round_agreement.corrupt_uniform rng ~bound:1_000_000))
        ~faults ~rounds Round_agreement.protocol
    in
    Format.printf "%a@." Trace.pp_summary trace;
    if dump then Format.printf "%a@." (Trace.pp_rounds Format.pp_print_int) trace;
    List.iter
      (fun (x, y) -> Format.printf "coterie-stable window: %d..%d@." x y)
      (Solve.stable_windows trace);
    let ok = Solve.ftss_solves Round_agreement.spec ~stabilization:1 trace in
    let per_window = Solve.measured_per_window Round_agreement.spec trace in
    (match obs with
    | Some o -> Ftss_obs.Obs.emit_windows o per_window
    | None -> ());
    let measured = Solve.measured_stabilization Round_agreement.spec trace in
    Format.printf "ftss-solves round agreement (stabilization 1): %b@." ok;
    Format.printf "measured stabilization: %d@." measured;
    if ok then 0 else 1
  in
  let term =
    Term.(
      const run $ n_arg $ f_arg $ seed_arg $ rounds_arg $ p_drop_arg $ dump_arg
      $ obs_term)
  in
  Cmd.v
    (Cmd.info "round-agreement"
       ~doc:"Run the Figure 1 round agreement protocol under systemic corruption and omission faults; check Theorem 3.")
    term

(* --- compile --- *)

let protocol_arg =
  Arg.(
    value
    & opt (enum [ ("consensus", `Consensus); ("ic", `Ic); ("leader", `Leader) ]) `Consensus
    & info [ "protocol" ] ~docv:"P"
        ~doc:"Canonical protocol to compile: $(b,consensus), $(b,ic) or $(b,leader).")

let compile_cmd =
  let run n f seed rounds p_drop which outs =
    with_obs outs @@ fun obs ->
    let rng = Rng.create seed in
    let faults = Faults.random_omission rng ~n ~f ~p_drop ~rounds in
    let check (type s d) (pi : (s, d) Canonical.t) ~(corrupt_s : Rng.t -> Pid.t -> s -> s)
        ~(valid : d -> bool) =
      let compiled = Compiler.compile ~n pi in
      let corrupt = Compiler.corrupt rng ~pi ~n ~c_bound:1000 ~corrupt_s in
      let trace = Runner.run ?obs ~corrupt_at:(corrupt_all ~n corrupt) ~faults ~rounds compiled in
      let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
      let bound = Compiler.stabilization_bound pi in
      let ok = Solve.ftss_solves spec ~stabilization:bound trace in
      (match obs with
      | Some o -> Ftss_obs.Obs.emit_windows o (Solve.measured_per_window spec trace)
      | None -> ());
      let measured = Solve.measured_stabilization spec trace in
      let completed, agreeing =
        Repeated.count_agreeing_iterations trace ~faulty:(Faults.faulty faults) ~valid
      in
      Format.printf "Π = %s, final_round = %d, Π⁺ stabilization bound = %d@."
        pi.Canonical.name pi.Canonical.final_round bound;
      Format.printf "%a@." Trace.pp_summary trace;
      Format.printf "iterations completed: %d, with full agreement: %d@." completed agreeing;
      Format.printf "Theorem 4 (ftss-solves Σ⁺): %b; measured stabilization: %d@." ok measured;
      if ok then 0 else 1
    in
    match which with
    | `Consensus ->
      let propose p = 50 + p in
      check
        (Omission_consensus.make ~n ~f ~propose)
        ~corrupt_s:(fun rng p s -> Omission_consensus.corrupt_state rng ~n p s)
        ~valid:(fun d -> d >= 50 && d < 50 + n)
    | `Ic ->
      let propose p = 1000 + p in
      check
        (Interactive_consistency.make ~n ~f ~propose)
        ~corrupt_s:(fun _ _ s -> s)
        ~valid:(fun vector ->
          List.for_all (function Some v -> v >= 1000 && v < 1000 + n | None -> true) vector)
    | `Leader ->
      check (Leader_election.make ~n ~f)
        ~corrupt_s:(fun _ _ s -> s)
        ~valid:(fun leader -> Pid.is_valid ~n leader)
  in
  let term =
    Term.(
      const run $ n_arg $ f_arg $ seed_arg $ rounds_arg $ p_drop_arg $ protocol_arg
      $ obs_term)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a canonical protocol with the Figure 3 compiler, run it under corruption + faults, and check Theorem 4.")
    term

(* --- esfd --- *)

let gst_arg =
  Arg.(value & opt int 300 & info [ "gst" ] ~docv:"T" ~doc:"Global stabilization time.")

let horizon_arg =
  Arg.(value & opt int 3000 & info [ "horizon" ] ~docv:"T" ~doc:"Simulation horizon.")

let crashes_arg =
  Arg.(
    value
    & opt_all (pair ~sep:':' int int) []
    & info [ "crash" ] ~docv:"PID:TIME" ~doc:"Crash process PID at TIME (repeatable).")

let detector_arg =
  Arg.(
    value
    & opt (enum [ ("oracle", `Oracle); ("heartbeats", `Heartbeats) ]) `Oracle
    & info [ "detector" ] ~docv:"D"
        ~doc:"◇W source: the scripted $(b,oracle) or live $(b,heartbeats) (oracle-free).")

(* Runs [f] once the sizes every simulator-backed command shares are
   checked: -n within 1..4096 (the 12-bit pid fields of [Sim]'s event
   tags), then each [(flag, value, least, most)] of [bounds] within
   [least..most] ([most = max_int]: no upper bound). A bad argument is
   reported under [cmd] with its flag and exits 2. *)
let with_sizes ~cmd ~n bounds f =
  let bad =
    List.find_map
      (fun (flag, v, least, most) ->
        if v >= least && v <= most then None
        else if most = max_int then Some (Printf.sprintf "%s %d: below %d" flag v least)
        else Some (Printf.sprintf "%s %d: outside %d..%d" flag v least most))
      (("-n", n, 1, 4096) :: bounds)
  in
  match bad with
  | Some msg ->
    Format.eprintf "%s: %s@." cmd msg;
    2
  | None -> f ()

(* Runs [f] on the lowest correct pid, the one the oracle keeps clear,
   once the simulator's arguments are checked: the sizes of
   [with_sizes] with a --horizon of at least one tick, and a --crash
   schedule whose pids are all in the system and which leaves one
   process correct. A bad argument is reported under [cmd] with its flag
   and exits 2. *)
let with_sim_args ~cmd ~n ~horizon crashes f =
  with_sizes ~cmd ~n [ ("--horizon", horizon, 1, max_int) ] @@ fun () ->
  let fail msg =
    Format.eprintf "%s: %s@." cmd msg;
    2
  in
  match List.find_opt (fun (p, _) -> not (Pid.is_valid ~n p)) crashes with
  | Some (p, t) -> fail (Printf.sprintf "--crash %d:%d: pid outside 0..%d" p t (n - 1))
  | None -> (
    match List.find_opt (fun p -> not (List.mem_assoc p crashes)) (Pid.all n) with
    | Some p -> f p
    | None -> fail "--crash: every process crashes; one must stay correct")

let esfd_cmd =
  let run n seed gst horizon crashes detector_kind outs =
    with_sim_args ~cmd:"esfd" ~n ~horizon crashes @@ fun trusted ->
    with_obs outs @@ fun obs ->
    let open Ftss_async in
    let config =
      {
        (Sim.default_config ~n ~seed) with
        Sim.gst;
        horizon;
        crashes;
        delay_before_gst = (1, 80);
        delay_after_gst = (1, 5);
      }
    in
    (* Only the oracle names a process it keeps clear; heartbeats are
       checked in the literal form (some correct process). *)
    let source, trusted =
      match detector_kind with
      | `Oracle ->
        let crashed p = List.assoc_opt p crashes in
        ( Esfd.Oracle (Ewfd.make (Rng.create (seed + 1)) ~n ~crashed ~gst ~trusted ~noise:0.3),
          Some trusted )
      | `Heartbeats -> (Esfd.Heartbeats, None)
    in
    let rng = Rng.create (seed + 2) in
    let corrupt_at = corrupt_all ~n (fun _ -> Esfd.Layer.corrupt rng ~num_bound:10_000) in
    let result = Sim.run ?obs ~corrupt_at config (Esfd.process ?obs ~n ~source ()) in
    let report = Esfd.analyze ?trusted result ~config in
    let show = function
      | Sim.Stabilized t -> string_of_int t
      | Sim.Not_within_horizon -> "never"
      | Sim.Vacuous -> "vacuous"
    in
    Format.printf "messages delivered: %d@." result.Sim.delivered;
    Format.printf "strong completeness from: %s@." (show report.Esfd.completeness);
    Format.printf "eventual weak accuracy from: %s@." (show report.Esfd.accuracy);
    Format.printf "Theorem 5 convergence: %s@." (show report.Esfd.convergence);
    match report.Esfd.convergence with Sim.Stabilized _ -> 0 | _ -> 1
  in
  let term =
    Term.(
      const run $ n_arg $ seed_arg $ gst_arg $ horizon_arg $ crashes_arg $ detector_arg
      $ obs_term)
  in
  Cmd.v
    (Cmd.info "esfd"
       ~doc:
         "Run the Figure 4 ◇W→◇S transform over the oracle or heartbeats from corrupted \
          detector state; check Theorem 5.")
    term

(* --- consensus --- *)

let style_arg =
  Arg.(
    value
    & opt (enum [ ("baseline", Ftss_async.Consensus.baseline); ("ss", Ftss_async.Consensus.self_stabilizing) ])
        Ftss_async.Consensus.self_stabilizing
    & info [ "style" ] ~docv:"S" ~doc:"$(b,baseline) or $(b,ss) (self-stabilizing).")

let corruption_arg =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("random", `Random); ("parked", `Parked) ]) `Random
    & info [ "corruption" ] ~docv:"C"
        ~doc:"Systemic failure to inject: $(b,none), $(b,random) or $(b,parked) (the deadlock state).")

let consensus_cmd =
  let run n seed gst horizon crashes style corruption detector_kind outs =
    with_sim_args ~cmd:"consensus" ~n ~horizon crashes @@ fun trusted ->
    with_obs outs @@ fun obs ->
    let open Ftss_async in
    let propose p i = 100 + (((p * 13) + (i * 7)) mod 50) in
    let config =
      {
        (Sim.default_config ~n ~seed) with
        Sim.gst;
        horizon;
        crashes;
        delay_before_gst = (1, 60);
        delay_after_gst = (1, 4);
      }
    in
    let crashed p = List.assoc_opt p crashes in
    let noise = match corruption with `Parked -> 0.0 | `None | `Random -> 0.2 in
    let oracle = Ewfd.make (Rng.create (seed + 7)) ~n ~crashed ~gst ~trusted ~noise in
    let corrupt_at =
      match corruption with
      | `None -> []
      | `Random ->
        corrupt_all ~n
          (Consensus.corrupt_random (Rng.create (seed + 3)) ~instance_bound:20
             ~round_bound:30 ~value_bound:90)
      | `Parked -> corrupt_all ~n (Consensus.corrupt_parked ~round:(n + trusted))
    in
    let detector =
      match detector_kind with
      | `Oracle -> Esfd.Oracle oracle
      | `Heartbeats -> Esfd.Heartbeats
    in
    let result =
      Sim.run ?obs ~corrupt_at config (Consensus.process ?obs ~n ~style ~propose ~detector ())
    in
    let correct = Sim.correct_set config in
    let ds = Consensus.decisions result in
    let grouped = Consensus.per_instance ds ~correct in
    Format.printf "instances decided (by correct processes): %d@." (List.length grouped);
    Format.printf "disagreeing instances: %d@." (List.length (Consensus.disagreements grouped));
    Format.printf "invalid-value instances: %d@."
      (List.length (Consensus.invalid_instances grouped ~propose ~n));
    let stab = Consensus.stabilization_time result ~config ~propose in
    (* One whole-run stability window: the async analogue of a coterie-stable
       interval is the full horizon, with the measured d from Definition
       2.4's piece-wise reading — the last agreement/validity violation
       plus one. *)
    (match (obs, stab) with
    | Some o, Sim.Stabilized t -> Ftss_obs.Obs.emit_windows o [ ((0, result.Sim.end_time), t) ]
    | _ -> ());
    (match stab with
    | Sim.Stabilized t ->
      Format.printf "stabilized at: t=%d@." t;
      Format.printf "instances fully decided after stabilization: %d@."
        (Consensus.fully_decided_after ds ~correct ~from:t)
    | Sim.Not_within_horizon -> Format.printf "did not stabilize within the horizon@."
    | Sim.Vacuous -> Format.printf "stabilization vacuous: a correct process never decided@.");
    (* CI gate: pre-stabilization debris (invalid or disagreeing
       decisions before the measured stabilization time) is exactly what
       Definition 2.4 tolerates; the failure modes are not stabilizing
       within the horizon, a correct process never deciding, or making
       no progress afterwards. The baseline style under corruption is
       *expected* to exit non-zero — that is the paper's point. *)
    match stab with
    | Sim.Stabilized t when Consensus.fully_decided_after ds ~correct ~from:t > 0 -> 0
    | Sim.Stabilized _ | Sim.Not_within_horizon | Sim.Vacuous -> 1
  in
  let term =
    Term.(
      const run $ n_arg $ seed_arg $ gst_arg
      $ Arg.(value & opt int 4000 & info [ "horizon" ] ~docv:"T" ~doc:"Simulation horizon.")
      $ crashes_arg $ style_arg $ corruption_arg $ detector_arg $ obs_term)
  in
  Cmd.v
    (Cmd.info "consensus"
       ~doc:"Run asynchronous repeated consensus (baseline or self-stabilizing) under systemic corruption.")
    term

(* --- impossibility --- *)

let impossibility_cmd =
  let run outs =
    (* Nothing emits here; the flags exist so scripted wrappers that
       pass them to every theorem command need no special case. *)
    with_obs outs @@ fun _obs ->
    let r1 = Impossibility.Theorem1.run ~isolation:8 ~c_p:42 ~c_q:7 ~suffix:10 in
    let r2 = Impossibility.Theorem2.run ~silence_threshold:4 ~c_p:13 ~c_q:2 ~rounds:12 in
    Format.printf "Theorem 1 confirmed: %b@." (Impossibility.Theorem1.confirms_theorem r1);
    Format.printf "Theorem 2 confirmed: %b@." (Impossibility.Theorem2.confirms_theorem r2);
    if
      Impossibility.Theorem1.confirms_theorem r1
      && Impossibility.Theorem2.confirms_theorem r2
    then 0
    else 1
  in
  Cmd.v
    (Cmd.info "impossibility" ~doc:"Execute the Theorem 1 and Theorem 2 scenario pairs.")
    Term.(const run $ obs_term)

(* --- check: exhaustive adversary model-checking (ftss_check) --- *)

let property_arg =
  Arg.(
    value
    & opt string "theorem3"
    & info [ "property" ] ~docv:"P"
        ~doc:
          "Property to model-check: $(b,theorem3) (round agreement), $(b,theorem4) \
           (the compiler) or $(b,theorem5) (the \xE2\x97\x87W\xE2\x86\x92\xE2\x97\x87S transform; crash schedules only).")

let inject_arg =
  Arg.(
    value
    & opt string "none"
    & info [ "inject" ] ~docv:"I"
        ~doc:
          "Seeded violation to inject: $(b,none), $(b,frozen-exchange) (theorem3) or \
           $(b,no-suspect-filter) (theorem4). A violation is expected to be found, \
           shrunk and written out.")

let domains_arg =
  Arg.(
    value
    & opt int 0
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Worker domains for the parallel explorer and fuzzer; 0 means every \
           available core, and the count is clamped to 1..64. The explorer's \
           verdicts and statistics are the same at every value; only wall-clock \
           figures change.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the shrunk counterexample (if any) to FILE instead of stdout.")

(* The process and fault bounds of [check] and [fuzz]. Long aliases so
   the CI-style spelling "check --n 3 --f 1" parses (cmdliner resolves
   --n and --f as unambiguous long-option prefixes). *)
let check_n_arg =
  Arg.(
    value
    & opt int 3
    & info [ "n"; "num-processes" ] ~docv:"N" ~doc:"Number of processes.")

let check_f_arg =
  Arg.(
    value
    & opt int 1
    & info [ "f"; "faults" ] ~docv:"F" ~doc:"Bound on faulty processes.")

let check_rounds_arg =
  Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc:"Schedule horizon in rounds.")

let json_arg =
  Arg.(
    value
    & flag
    & info [ "json" ]
        ~doc:
          "Print the explorer statistics as a single JSON object on stdout and nothing \
           else (counterexample shrinking is skipped). Exit codes are unchanged.")

let canonical_arg =
  Arg.(
    value
    & flag
    & info [ "canonical" ]
        ~doc:
          "Collapse pid-permutation-symmetric cases: group the adversary space into \
           orbits under process relabelling, execute one canonical representative per \
           orbit and scatter its verdict to every member. Sound for pid-symmetric \
           properties (theorem3); the orbit count and reduction factor are reported \
           in the statistics.")

let check_cmd =
  let run n f rounds property inject domains canonical out json dot outs =
    with_obs outs @@ fun obs ->
    let open Ftss_check in
    match Property.find ~name:property ~inject with
    | Error msg ->
      Format.eprintf "check: %s@." msg;
      2
    | Ok prop -> (
      match
        let params =
          prop.Property.restrict
            { Schedule_enum.n; rounds; f; intervals = true; drops = true }
        in
        Schedule_enum.validate params;
        params
      with
      | exception Invalid_argument msg ->
        Format.eprintf "check: %s@." msg;
        2
      | params ->
        let cases = Schedule_enum.enumerate params in
        if not json then begin
          Format.printf "property: %s (inject: %s)@." prop.Property.name
            prop.Property.inject;
          Format.printf "parameters: n=%d rounds=%d f=%d (intervals=%b drops=%b)@."
            params.Schedule_enum.n params.Schedule_enum.rounds params.Schedule_enum.f
            params.Schedule_enum.intervals params.Schedule_enum.drops;
          Format.printf "adversary space: %d schedules x %d corruption classes = %d cases@."
            (Schedule_enum.count_schedules params)
            (List.length (Schedule_enum.corruptions params))
            (Array.length cases)
        end;
        let words = Gc.minor_words () in
        let stats, _ = Explore.run ?obs ~domains ~canonical prop cases in
        (* The sweep's minor allocation per case, as the calling domain
           counts it: every word at --domains 1, so a count that repeats. *)
        let minor_words_per_case =
          (Gc.minor_words () -. words) /. float_of_int (max 1 (Array.length cases))
        in
        if json then begin
          (* The major heap's high-water mark over the whole command, the
             sweep included: what a memory gate reads. *)
          let heap_peak_mb =
            float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
          in
          let out =
            match Explore.to_json stats with
            | Ftss_obs.Json.Obj fields ->
              Ftss_obs.Json.Obj
                (fields
                @ [
                    ("heap_peak_mb", Ftss_obs.Json.Float heap_peak_mb);
                    ("minor_words_per_case", Ftss_obs.Json.Float minor_words_per_case);
                  ])
            | j -> j
          in
          print_endline (Ftss_obs.Json.to_string out);
          match stats.Explore.violations with [] -> 0 | _ :: _ -> 1
        end
        else begin
          Format.printf "%a@." Explore.pp_stats stats;
          match stats.Explore.violations with
          | [] ->
            Format.printf
              "verdict: %s holds over the exhaustive bounded adversary space@."
              prop.Property.name;
            0
          | first :: _ ->
            let case = cases.(first) in
            Format.printf "verdict: VIOLATED (first counterexample, case %d)@." first;
            Format.printf "  %a@." Schedule_enum.pp case;
            (* The sweep keeps no explanations: re-run the case for its own. *)
            Format.printf "  %s@."
              ((Lazy.force (prop.Property.run case).Property.verdict).Property.detail ());
            (* Shrunk as a genome, as the fuzzer shrinks its own. *)
            let module M = Ftss_fuzz.Mutate in
            let module R = Ftss_fuzz.Replay in
            let genome = M.of_schedule case in
            let shrunk = Ftss_fuzz.Fuzz.shrink_genome prop genome in
            Format.printf "shrunk counterexample (genome size %d -> %d):@." (M.size genome)
              (M.size shrunk);
            Format.printf "  %a@." M.pp shrunk;
            let replayable =
              { R.property = prop.Property.name; inject = prop.Property.inject; genome = shrunk }
            in
            (match out with
            | Some path ->
              R.save path replayable;
              Format.printf "replay file written to %s (ftss_cli replay %s)@." path path
            | None -> Format.printf "%s" (R.to_string replayable));
            (* Traced re-run of the shrunk counterexample: the causal
               cone of its outcome ships with the report. *)
            explain_counterexample ?dot (fun o ->
                ignore (prop.Property.run_adv ~obs:o (M.to_adversary shrunk)));
            1
        end)
  in
  let term =
    Term.(
      const run $ check_n_arg $ check_f_arg $ check_rounds_arg $ property_arg $ inject_arg
      $ domains_arg $ canonical_arg $ out_arg $ json_arg $ dot_arg $ obs_term)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check a theorem over every enumerated fault schedule and \
          corruption class, in parallel across domains; shrink any counterexample to \
          a minimal replayable file.")
    term

(* --- fuzz: coverage-guided adversary fuzzing (ftss_fuzz) --- *)

let budget_conv =
  let parse s =
    let open Ftss_fuzz.Fuzz in
    let len = String.length s in
    if len > 1 && s.[len - 1] = 's' then
      match float_of_string_opt (String.sub s 0 (len - 1)) with
      | Some x when x > 0. -> Ok (Seconds x)
      | _ -> Error (`Msg (Printf.sprintf "invalid budget %S (want N or Ns)" s))
    else
      match int_of_string_opt s with
      | Some k when k > 0 -> Ok (Cases k)
      | _ -> Error (`Msg (Printf.sprintf "invalid budget %S (want N or Ns)" s))
  in
  let print ppf = function
    | Ftss_fuzz.Fuzz.Cases k -> Format.fprintf ppf "%d" k
    | Ftss_fuzz.Fuzz.Seconds x -> Format.fprintf ppf "%gs" x
  in
  Arg.conv (parse, print)

let budget_arg =
  Arg.(
    value
    & opt budget_conv (Ftss_fuzz.Fuzz.Cases 5000)
    & info [ "budget" ] ~docv:"N|Ns"
        ~doc:
          "Fuzzing budget: a case count ($(b,5000)) or a wall-clock time in seconds \
           ($(b,30s)). The seed phase — the exhaustive catalogue plus any persisted \
           corpus — always runs to completion under a time budget.")

let corpus_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the corpus: entries in $(docv) seed the run, and every input that \
           grew coverage is written back, one JSON file per execution \
           fingerprint.")

let fuzz_cmd =
  let run n f rounds property inject seed budget corpus_dir domains json outs =
    with_obs outs @@ fun obs ->
    let open Ftss_check in
    let module M = Ftss_fuzz.Mutate in
    let module F = Ftss_fuzz.Fuzz in
    match Property.find ~name:property ~inject with
    | Error msg ->
      Format.eprintf "fuzz: %s@." msg;
      2
    | Ok prop -> (
      let config =
        {
          F.seed;
          budget;
          domains;
          params = { M.n; rounds; f; allow_drops = true };
          corpus_dir;
        }
      in
      match F.run ?obs config prop with
      | exception Invalid_argument msg ->
        Format.eprintf "fuzz: %s@." msg;
        2
      | Error msg ->
        Format.eprintf "fuzz: %s@." msg;
        2
      | Ok stats ->
        (* Self-verification: every reported violation must survive
           persist -> reload -> replay, and shrink deterministically to a
           still-failing local minimum. A violation that does not is a
           fuzzer bug, not a protocol bug — distinct exit code. *)
        let reproducible (v : F.violation) =
          let module J = Ftss_obs.Json in
          let text = J.to_string (M.to_json v.F.v_genome) in
          (match Result.bind (J.of_string text) M.of_json with
          | Ok g -> M.equal g v.F.v_genome && F.genome_fails prop g
          | Error _ -> false)
          && F.genome_fails prop v.F.v_shrunk
          && M.equal v.F.v_shrunk (F.shrink_genome prop v.F.v_genome)
        in
        let broken = List.filter (fun v -> not (reproducible v)) stats.F.violations in
        if json then print_endline (Ftss_obs.Json.to_string (F.to_json stats))
        else begin
          Format.printf "property: %s (inject: %s)@." prop.Property.name
            prop.Property.inject;
          Format.printf "parameters: n=%d rounds=%d f=%d@." n rounds f;
          Format.printf "%a@." F.pp_stats stats;
          List.iter
            (fun (v : F.violation) ->
              Format.printf "violation (%s phase): %a@."
                (if v.F.v_seed then "seed" else "mutation")
                M.pp v.F.v_genome;
              Format.printf "  shrunk (size %d -> %d): %a@." (M.size v.F.v_genome)
                (M.size v.F.v_shrunk) M.pp v.F.v_shrunk;
              Format.printf "  %s@." v.F.v_detail;
              explain_counterexample (fun o ->
                  ignore (prop.Property.run_adv ~obs:o (M.to_adversary v.F.v_shrunk))))
            stats.F.violations
        end;
        match (broken, stats.F.violations) with
        | _ :: _, _ ->
          List.iter
            (fun (v : F.violation) ->
              Format.eprintf "fuzz: violation %s did not reproduce or re-shrink@."
                v.F.v_fingerprint)
            broken;
          3
        | [], [] -> 0
        | [], _ :: _ -> 1)
  in
  let term =
    Term.(
      const run $ check_n_arg $ check_f_arg $ check_rounds_arg $ property_arg $ inject_arg
      $ seed_arg $ budget_arg $ corpus_dir_arg $ domains_arg $ json_arg
      $ obs_term)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Coverage-guided adversary fuzzing over arbitrary drop matrices, crash points \
          and raw state corruptions — seeded with the exhaustive catalogue, so the \
          seed phase alone rediscovers everything $(b,check) finds, then mutation \
          searches beyond it. Violations are auto-shrunk and self-verified \
          (persist, reload, replay); exit 1 = reproducible violations found, \
          3 = a violation failed self-verification.")
    term

(* --- replay --- *)

let replay_cmd =
  let run path dot outs =
    let module R = Ftss_fuzz.Replay in
    match R.load path with
    | Error msg ->
      Format.eprintf "replay: %s@." msg;
      2
    | Ok t -> (
      with_obs outs @@ fun obs ->
      Format.printf "property: %s (inject: %s)@." t.R.property t.R.inject;
      Format.printf "genome: %a@." Ftss_fuzz.Mutate.pp t.R.genome;
      match R.replay ?obs t with
      | Error msg ->
        Format.eprintf "replay: %s@." msg;
        2
      | Ok verdict ->
        Format.printf "%s@." (verdict.Ftss_check.Property.detail ());
        if verdict.Ftss_check.Property.ok then begin
          Format.printf "counterexample did NOT reproduce (property holds)@.";
          1
        end
        else begin
          Format.printf "counterexample reproduced@.";
          explain_counterexample ?dot (fun o -> ignore (R.replay ~obs:o t));
          0
        end)
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Counterexample file written by $(b,check --out).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Deterministically re-execute a shrunk counterexample file and confirm it \
             still falsifies its property; a reproduced counterexample is explained \
             through its causal provenance.")
    Term.(const run $ file_arg $ dot_arg $ obs_term)

(* --- trace: summarize a JSONL event file --- *)

let trace_cmd =
  let run path dump_events kind =
    match Ftss_obs.Trace_summary.load path with
    | Error msg ->
      Format.eprintf "trace: %s@." msg;
      2
    | Ok t ->
      if dump_events || kind <> None then begin
        let sink =
          Ftss_obs.Sink.console
            ?kinds:(Option.map (fun k -> [ k ]) kind)
            Format.std_formatter
        in
        List.iter sink.Ftss_obs.Sink.emit (Ftss_obs.Trace_summary.events t);
        sink.Ftss_obs.Sink.close ()
      end
      else Format.printf "%a@." Ftss_obs.Trace_summary.pp t;
      0
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE.jsonl" ~doc:"Event trace written by $(b,--trace-out).")
  in
  let events_arg =
    Arg.(
      value & flag
      & info [ "events" ] ~doc:"Dump every event, one per line, instead of the summary.")
  in
  let kind_arg =
    let names =
      Array.map (fun (s : Ftss_obs.Event.spec) -> (s.name, s.name)) Ftss_obs.Event.kinds
    in
    Arg.(
      value
      & opt (some (enum (Array.to_list names))) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"With or without $(b,--events): dump only events of this kind.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Summarize a JSON Lines event trace: event census, coterie-stable windows with \
          measured stabilization, per-process suspicion timeline, and the omission \
          blame matrix.")
    Term.(const run $ file_arg $ events_arg $ kind_arg)

(* --- explain: causal provenance of an outcome event --- *)

let explain_cmd =
  let run path selector dot =
    match Ftss_obs.Trace_summary.load path with
    | Error msg ->
      Format.eprintf "explain: %s@." msg;
      2
    | Ok trace -> (
      let t = Prov.of_events (Ftss_obs.Trace_summary.events trace) in
      match Prov.parse_target selector with
      | Error msg ->
        Format.eprintf "explain: %s@." msg;
        2
      | Ok target -> (
        match Prov.resolve t target with
        | Error msg ->
          Format.eprintf "explain: %s@." msg;
          2
        | Ok targets ->
          Format.printf "%a@." Prov.pp_explain (t, targets);
          (match dot with
          | Some p ->
            write_dot p t targets;
            Format.printf "provenance cone written to %s (Graphviz)@." p
          | None -> ());
          0))
  in
  let trace_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE.jsonl"
          ~doc:"Event trace written by $(b,--trace-out).")
  in
  let event_arg =
    Arg.(
      value
      & opt string "last-decide"
      & info [ "event" ] ~docv:"SEL"
          ~doc:
            "Outcome event to explain: an event id (the event's 0-based position \
             in the trace), $(b,last-decide), $(b,last-window), or \
             $(b,suspect:P,Q) (the last suspicion change of P about Q).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain an outcome event of a trace through its causal (happened-before) \
          cone: which events of which processes it depends on, which omitted messages \
          were pruned with their blame chains, and which coterie-growth \
          (destabilizing) events the run contains.")
    Term.(const run $ trace_arg $ event_arg $ dot_arg)

(* --- serve / watch: the replicated service tower end to end --- *)

module Monitor = Ftss_monitor.Monitor
module Recorder = Ftss_monitor.Recorder

(* Shared driver for [serve] and [watch]: builds the workload and fault
   mix, arms the hub + monitor plane exactly as requested (nothing at
   all when no observability flag is given), runs the tower, finalizes
   the monitors at the simulated horizon, and renders. Exit code is
   non-zero when the service gate fails or any SLO alarm fired. A size
   flag out of range exits 2 under [cmd] before anything runs. *)
let tower_run ~cmd ~n ~seed ~ops ~sessions ~keys ~window ~baseline ~storm_at
    ~storm_victims ~omit ~outs ~slo ~prom_out ~prom_every ~flight_out ~watch
    ~watch_json ~shards ~domains =
  let open Ftss_service in
  let bounds =
    [
      ("--ops", ops, 0, max_int);
      ("--sessions", sessions, 1, max_int);
      ("--keys", keys, 1, max_int);
      ("--window", window, 1, max_int);
      ("--prom-every", prom_every, 1, max_int);
    ]
    @ (match shards with Some s -> [ ("--shards", s, 1, max_int) ] | None -> [])
    @ (match storm_at with
      | Some t -> [ ("--storm-at", t, 0, max_int); ("--storm-victims", storm_victims, 1, n) ]
      | None -> [])
    @ match watch with Some (every, _) -> [ ("--every", every, 1, max_int) ] | None -> []
  in
  with_sizes ~cmd ~n bounds @@ fun () ->
  match
    match slo with
    | None -> Ok Monitor.no_budgets
    | Some s -> Monitor.budgets_of_string s
  with
  | Error msg ->
    Format.eprintf "ftss: bad --slo spec: %s@." msg;
    2
  | Ok budgets ->
    (* One shard per domain when only --domains was given. *)
    let shards = match shards with Some s -> s | None -> max 1 domains in
    let spec =
      { Workload.default_spec with Workload.ops; sessions; keys; window; seed }
    in
    let params =
      {
        (Service.default_params ~n ~seed:(seed + 1)) with
        Service.style = (if baseline then Tob.baseline else Tob.self_stabilizing);
        faults =
          {
            Service.no_faults with
            Service.storms =
              (match storm_at with Some t -> [ (t, storm_victims) ] | None -> []);
            omission = (match omit with Some w -> [ w ] | None -> []);
          };
      }
    in
    let need_monitor =
      slo <> None || prom_out <> None || flight_out <> None || watch <> None
    in
    if shards > 1 || domains > 1 then begin
      (* Sharded towers run without the per-event monitor plane (shard
         simulations emit no event streams); summary gauges still land in
         --metrics-out. *)
      if need_monitor || outs.trace_out <> None then begin
        Format.eprintf
          "ftss: --shards/--domains cannot be combined with --slo, --prom-out, \
           --flight-out, --trace-out or watch@.";
        2
      end
      else
        with_obs ~threadsafe:false outs @@ fun obs ->
        let r = Service.run_sharded ?obs ~domains ~shards ~spec params in
        Format.printf "%a@." Service.pp_report r;
        Format.printf "shards=%d domains=%d digest=%d@." shards domains
          (Service.report_digest r);
        if r.Service.unique_ops > 0 && r.Service.converged then 0 else 1
    end
    else
      (* single-domain driver: skip the per-event hub lock *)
      with_obs ~always:need_monitor ~threadsafe:false outs @@ fun obs ->
      let wl = Workload.create ~n spec in
      let snap = ref None in
      let write_prom m =
        match prom_out with Some p -> Monitor.write_openmetrics m p | None -> ()
      in
      (* With --json each frame is one JSON object (a line on stdout, or
         the whole file under --out) instead of the text dashboard. *)
      let render_frame m =
        let frame () =
          if watch_json then
            Ftss_obs.Json.to_string (Monitor.dashboard_json m) ^ "\n"
          else Monitor.dashboard_string m
        in
        match watch with
        | Some (_, Some path) ->
          let oc = open_out path in
          output_string oc (frame ());
          close_out oc
        | Some (_, None) -> print_string (frame ())
        | None -> ()
      in
      (* When JSON frames stream to stdout, keep stdout machine-readable:
         the human-facing report and monitor table are suppressed (the
         final frame carries the same quantities). *)
      let json_stdout =
        watch_json && match watch with Some (_, None) -> true | _ -> false
      in
      let monitor =
        match obs with
        | Some obs when need_monitor ->
          let m = Monitor.create ~n budgets in
          Monitor.set_on_alarm m (fun m a ->
              Format.eprintf "ALARM %a@." Monitor.pp_alarm a;
              match flight_out with
              | Some prefix when !snap = None ->
                snap := Some (Recorder.snapshot m a ~prefix)
              | _ -> ());
          (match
             match watch with
             | Some (every, _) -> Some every
             | None -> if prom_out <> None then Some prom_every else None
           with
          | Some every ->
            Monitor.set_interval m ~every (fun m ~time:_ ->
                render_frame m;
                write_prom m)
          | None -> ());
          Monitor.attach m obs;
          Some m
        | _ -> None
      in
      let r = Service.run ?obs ~wl params in
      (match monitor with
      | Some m ->
        Monitor.finalize m ~end_time:r.Service.end_time;
        write_prom m;
        render_frame m
      | None -> ());
      if not json_stdout then Format.printf "%a@." Service.pp_report r;
      let alarm_count =
        match monitor with Some m -> Monitor.alarm_count m | None -> 0
      in
      (match monitor with
      | Some _ when json_stdout -> ()
      | Some m when slo <> None || alarm_count > 0 ->
        Format.printf "@[<v>monitors:@,%a@]@."
          (Format.pp_print_list (fun ppf (s : Monitor.status) ->
               Format.fprintf ppf "  %-12s %-9s %s" s.Monitor.name
                 (if s.Monitor.firing > 0 then
                    Printf.sprintf "ALARM(%d)" s.Monitor.firing
                  else if s.Monitor.armed then "ok"
                  else "off")
                 s.Monitor.value))
          (Monitor.statuses m);
        if alarm_count > 0 then
          Format.printf "slo: %d alarm%s fired@." alarm_count
            (if alarm_count = 1 then "" else "s")
        else Format.printf "slo: all budgets met@."
      | _ -> ());
      (match !snap with
      | Some s when not json_stdout -> Format.printf "%a@." Recorder.pp_snapshot s
      | _ -> ());
      if r.Service.unique_ops > 0 && r.Service.converged && alarm_count = 0 then 0
      else 1

let slo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "Arm SLO monitors with budgets: comma-separated key=value with keys \
           $(b,stab) (online stabilization time d, ticks), $(b,heal) \
           (corruption-to-apply ticks), $(b,p99) (commit-latency ticks), $(b,drop) \
           (per-link omission EWMA), $(b,churn) (suspicion changes/tick). Example: \
           $(b,heal=120,stab=400,p99=800). Any fired alarm makes the command exit \
           non-zero.")

let prom_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom-out" ] ~docv:"FILE"
        ~doc:
          "Write an OpenMetrics text exposition of the monitor plane to $(docv), \
           rewritten on every interval and at the end of the run.")

let prom_every_arg =
  Arg.(
    value & opt int 1_000
    & info [ "prom-every" ] ~docv:"T"
        ~doc:"Simulated ticks between $(b,--prom-out) rewrites.")

let flight_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-out" ] ~docv:"PREFIX"
        ~doc:
          "On the first alarm, snapshot the flight recorder: the event ring to \
           $(docv).jsonl and the causal cone of the triggering event to \
           $(docv).dot.")

let omit_window_arg =
  let omit_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ a; b; p ] -> (
        match (int_of_string_opt a, int_of_string_opt b, float_of_string_opt p) with
        | Some a, Some b, Some p when a >= 0 && b > a && p >= 0. && p <= 1. ->
          Ok (a, b, p)
        | _ -> Error (`Msg "expected T0:T1:P with T0 < T1 and P in [0,1]"))
      | _ -> Error (`Msg "expected T0:T1:P")
    in
    Arg.conv (parse, fun ppf (a, b, p) -> Format.fprintf ppf "%d:%d:%g" a b p)
  in
  Arg.(
    value
    & opt (some omit_conv) None
    & info [ "omit-window" ] ~docv:"T0:T1:P"
        ~doc:"Drop each message with probability P between times T0 and T1.")

let ops_arg =
  Arg.(
    value & opt int 20_000
    & info [ "ops" ] ~docv:"OPS" ~doc:"Client operations to generate.")

let sessions_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "sessions" ] ~docv:"S" ~doc:"Simulated client sessions.")

let keys_arg =
  Arg.(
    value & opt int 65_536
    & info [ "keys" ] ~docv:"K" ~doc:"Key-space size (Zipfian-distributed).")

let window_arg =
  Arg.(
    value & opt int 2_000
    & info [ "window" ] ~docv:"T"
        ~doc:"Arrival window in simulated time units; the run drains afterwards.")

let baseline_arg =
  Arg.(
    value & flag
    & info [ "baseline" ]
        ~doc:"Run the non-stabilizing baseline tower instead of the default \
              self-stabilizing one.")

let storm_at_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "storm-at" ] ~docv:"T"
        ~doc:"Inject a corruption storm at time $(docv) (0: corrupt the initial state).")

let storm_victims_arg =
  Arg.(
    value & opt int 2
    & info [ "storm-victims" ] ~docv:"V"
        ~doc:"Replicas scrambled by the storm (with $(b,--storm-at)), 1 to $(b,-n).")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Partition the workload over $(docv) independent replica towers and \
           merge their reports. Defaults to $(b,--domains) so each domain gets \
           one shard. The merged digest depends only on the shard count, never \
           on $(b,--domains).")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Run shards on $(docv) parallel domains. Results are bit-identical \
           for every value of $(docv); only wall-clock time changes.")

let serve_cmd =
  let run n seed ops sessions keys window baseline storm_at storm_victims omit
      outs slo prom_out prom_every flight_out shards domains =
    tower_run ~cmd:"serve" ~n ~seed ~ops ~sessions ~keys ~window ~baseline ~storm_at
      ~storm_victims ~omit ~outs ~slo ~prom_out ~prom_every ~flight_out
      ~watch:None ~watch_json:false ~shards ~domains
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the replicated service tower (total-order broadcast over repeated \
          multivalued consensus, applying a key-value log) under a generated \
          client workload, and report commit latency, throughput and \
          convergence. With $(b,--shards)/$(b,--domains) the workload is \
          partitioned over independent towers executed in parallel, with \
          deterministic, domain-count-independent results. Exits non-zero \
          unless operations were committed, every live replica converged, and \
          no $(b,--slo) alarm fired.")
    Term.(
      const run $ n_arg $ seed_arg $ ops_arg $ sessions_arg $ keys_arg
      $ window_arg $ baseline_arg $ storm_at_arg $ storm_victims_arg
      $ omit_window_arg $ obs_term $ slo_arg $ prom_out_arg
      $ prom_every_arg $ flight_out_arg $ shards_arg $ domains_arg)

let watch_cmd =
  let run n seed ops sessions keys window baseline storm_at storm_victims omit
      every out json slo prom_out prom_every flight_out =
    tower_run ~cmd:"watch" ~n ~seed ~ops ~sessions ~keys ~window ~baseline ~storm_at
      ~storm_victims ~omit ~outs:{ trace_out = None; metrics_out = None } ~slo
      ~prom_out ~prom_every ~flight_out ~watch:(Some (every, out)) ~watch_json:json
      ~shards:(Some 1) ~domains:1
  in
  let every_arg =
    Arg.(
      value & opt int 500
      & info [ "every" ] ~docv:"T"
          ~doc:"Simulated ticks between dashboard frames.")
  in
  let watch_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Rewrite each dashboard frame to $(docv) instead of printing frames \
             to stdout (tail it from another terminal).")
  in
  let watch_json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit each dashboard frame as one JSON object instead of the text \
             dashboard: a JSON line per frame on stdout (the human-readable \
             report and monitor table are suppressed so stdout stays \
             machine-readable), or the whole $(b,--out) file rewritten per \
             frame. Exit codes are unchanged.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Run the service tower like $(b,serve) while rendering a live dashboard \
          of the streaming monitor plane every $(b,--every) ticks: throughput, \
          commit-latency quantiles, omission and suspicion-churn EWMAs, online \
          stabilization time, heal watchdog and alarm states.")
    Term.(
      const run $ n_arg $ seed_arg $ ops_arg $ sessions_arg $ keys_arg
      $ window_arg $ baseline_arg $ storm_at_arg $ storm_victims_arg
      $ omit_window_arg $ every_arg $ watch_out_arg $ watch_json_arg $ slo_arg
      $ prom_out_arg $ prom_every_arg $ flight_out_arg)

(* --- profile: a representative workload under the span profiler --- *)

let profile_cmd =
  let run n seed ops window out folded_out summary =
    with_sizes ~cmd:"profile" ~n [ ("--ops", ops, 0, max_int); ("--window", window, 1, max_int) ]
    @@ fun () ->
    let module Prof = Ftss_profile.Profile in
    let open Ftss_service in
    let prof = Prof.create () in
    (* Tower section: the sim_* event-loop phases plus every svc_*
       replica phase. The mid-window storm forces repair traffic, so the
       recovery phases (audit repairs, pull catch-up) appear even on a
       short run. *)
    let spec = { Workload.default_spec with Workload.ops; seed; window } in
    let params =
      {
        (Service.default_params ~n ~seed:(seed + 1)) with
        Service.faults =
          {
            Service.no_faults with
            Service.storms = [ (window / 2, max 1 (n / 2)) ];
          };
      }
    in
    let wl = Workload.create ~n spec in
    let r = Service.run ~profile:(Prof.lane prof "svc.tower") ~wl params in
    (* Explorer section: the chunk_* work-queue phases, two domains. *)
    match Ftss_check.Property.find ~name:"theorem3" ~inject:"none" with
    | Error msg ->
      Format.eprintf "profile: %s@." msg;
      2
    | Ok prop -> (
      let module S = Ftss_check.Schedule_enum in
      let sp =
        prop.Ftss_check.Property.restrict
          { S.n = 3; rounds = 2; f = 1; intervals = true; drops = true }
      in
      S.validate sp;
      let cases = S.enumerate sp in
      let _ = Ftss_check.Explore.run ~profile:prof ~domains:2 prop cases in
      (* Fuzzer section: the whole seed catalogue plus enough budget for
         mutation batches, so fuzz_mutate appears alongside fuzz_seed and
         fuzz_verify. *)
      let module F = Ftss_fuzz.Fuzz in
      let fconfig =
        {
          F.seed;
          budget = F.Cases (Array.length cases + 256);
          domains = 1;
          params = { Ftss_fuzz.Mutate.n = 3; rounds = 2; f = 1; allow_drops = true };
          corpus_dir = None;
        }
      in
      match F.run ~profile:prof fconfig prop with
      | Error msg ->
        Format.eprintf "profile: %s@." msg;
        2
      | Ok _ ->
        let totals = Prof.totals prof in
        let missing =
          List.filter
            (fun p ->
              not (List.exists (fun t -> t.Prof.pt_phase = p) totals))
            Prof.Phase.all
        in
        let bad = Prof.check prof in
        (match out with
        | Some path ->
          let oc = open_out path in
          output_string oc (Ftss_obs.Json.to_string (Prof.chrome_json prof));
          output_char oc '\n';
          close_out oc;
          Format.printf "trace written to %s (load in ui.perfetto.dev or \
                         chrome://tracing)@."
            path
        | None -> ());
        (match folded_out with
        | Some path ->
          let oc = open_out path in
          output_string oc (Prof.folded prof);
          close_out oc;
          Format.printf "folded stacks written to %s (flamegraph.pl input)@." path
        | None -> ());
        if summary then Format.printf "%a@." Prof.pp_summary prof;
        Format.printf
          "profiled %d lanes over %.3f s (%d committed ops, %d cases, %d+ fuzz \
           execs); phases covered: %d/%d@."
          (List.length (Prof.lanes prof))
          (float_of_int (Prof.wall_ns prof) /. 1e9)
          r.Service.unique_ops (Array.length cases) (Array.length cases)
          (Prof.Phase.count - List.length missing)
          Prof.Phase.count;
        List.iter
          (fun p ->
            Format.eprintf "profile: phase %s never recorded@." (Prof.Phase.name p))
          missing;
        List.iter
          (fun (l, s, w) ->
            Format.eprintf "profile: lane %s self-time %d ns exceeds wall %d ns@."
              l s w)
          bad;
        if missing = [] && bad = [] && r.Service.unique_ops > 0 then 0 else 1)
  in
  let ops_arg =
    Arg.(
      value & opt int 4_000
      & info [ "ops" ] ~docv:"OPS" ~doc:"Client operations in the tower section.")
  in
  let window_arg =
    Arg.(
      value & opt int 1_500
      & info [ "window" ] ~docv:"T" ~doc:"Tower arrival window in simulated ticks.")
  in
  let profile_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the merged multi-lane timeline as Chrome-trace/Perfetto JSON \
             to $(docv): one process row per track group (svc, explore, fuzz), \
             one thread lane per domain or shard, aggregated window slices for \
             the per-event phases.")
  in
  let folded_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded-out" ] ~docv:"FILE"
          ~doc:
            "Write folded stacks (one $(b,lane;parent;phase self_ns) line per \
             stack) to $(docv), ready for flamegraph.pl / inferno.")
  in
  let summary_arg =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:
            "Print the per-phase self-time table (calls, self time, share, \
             allocation) — the same figures E17 exports as bench gauges.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Self-profile the stack: run the service tower (with a mid-run \
          corruption storm), a two-domain exhaustive exploration and a short \
          fuzz campaign under the span profiler, then export per-phase \
          time/allocation attribution. Exits non-zero when any registered \
          phase never fired or a lane's self-times exceed its wall time — the \
          CI smoke gate.")
    Term.(
      const run $ n_arg $ seed_arg $ ops_arg $ window_arg $ profile_out_arg
      $ folded_out_arg $ summary_arg)

(* --- bench-diff: compare two gauge snapshots --- *)

let bench_diff_cmd =
  let run old_path new_path max_regress =
    let module B = Ftss_obs.Bench_diff in
    match (B.load old_path, B.load new_path) with
    | Error msg, _ | _, Error msg ->
      Format.eprintf "bench-diff: %s@." msg;
      2
    | Ok o, Ok nw ->
      let report = B.diff ~old_:o ~new_:nw in
      Format.printf "%a@." (B.pp ~max_regress) report;
      (match report.B.only_old with
      | [] -> ()
      | missing ->
        Format.printf
          "warning: %d baseline gauge%s missing from the candidate snapshot: %s@."
          (List.length missing)
          (if List.length missing = 1 then "" else "s")
          (String.concat ", " missing));
      (match report.B.only_new with
      | [] -> ()
      | fresh ->
        Format.printf
          "warning: %d candidate gauge%s missing from the baseline snapshot \
           (ungated until the baseline is refreshed): %s@."
          (List.length fresh)
          (if List.length fresh = 1 then "" else "s")
          (String.concat ", " fresh));
      let regs = B.regressions report ~max_regress in
      if regs = [] then begin
        Format.printf "no regressions beyond %.0f%%@." max_regress;
        0
      end
      else begin
        Format.printf "%d regression%s beyond %.0f%%@." (List.length regs)
          (if List.length regs = 1 then "" else "s")
          max_regress;
        1
      end
  in
  let old_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD.json" ~doc:"Baseline gauge snapshot (BENCH_*.json).")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW.json" ~doc:"Fresh gauge snapshot to compare.")
  in
  let max_regress_arg =
    Arg.(
      value
      & opt float 25.0
      & info [ "max-regress" ] ~docv:"PCT"
          ~doc:
            "Tolerated worsening per gauge, in percent (direction-aware: throughput \
             gauges must not fall, latency gauges must not rise, by more than \
             $(docv)).")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two benchmark gauge snapshots (schema-2 envelopes or bare metrics \
          files) and exit non-zero when any gauge regressed beyond the tolerance.")
    Term.(const run $ old_arg $ new_arg $ max_regress_arg)

let () =
  let doc = "Unifying self-stabilization and fault-tolerance (PODC 1993) — simulator and experiments" in
  let info = Cmd.info "ftss" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            round_agreement_cmd; compile_cmd; esfd_cmd; consensus_cmd;
            impossibility_cmd; check_cmd; fuzz_cmd; replay_cmd; trace_cmd;
            explain_cmd; serve_cmd; watch_cmd; profile_cmd; bench_diff_cmd;
          ]))
