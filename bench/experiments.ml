(* The experiment harness: one experiment per figure/theorem of the paper.
   Each experiment prints a table in the shape a systems paper would
   report; EXPERIMENTS.md records paper-claim vs. measured for each. *)

open Ftss_util
open Ftss_sync
open Ftss_core
open Ftss_protocols
module M = Ftss_obs.Metrics

let trials = 25

let corrupt_all ~n corrupt = List.init n (fun p -> (0, p, corrupt p))

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1 / Theorem 3: round agreement stabilizes in 1 round.   *)
(* ------------------------------------------------------------------ *)

let e1 m =
  let table =
    Table.create
      ~title:
        "E1 (Fig. 1 / Thm 3) Round agreement: measured stabilization over coterie-stable \
         windows (claim: <= 1 round)"
      [ "n"; "f"; "corrupt bound"; "trials"; "max measured"; "ftss holds" ]
  in
  List.iter
    (fun (n, f) ->
      List.iter
        (fun bound ->
          let measured = ref [] and holds = ref 0 in
          for seed = 1 to trials do
            let rng = Rng.create ((seed * 7919) + n + bound) in
            let rounds = Rng.int_in rng 15 40 in
            let faults = Faults.random_omission rng ~n ~f ~p_drop:0.45 ~rounds in
            let trace =
              Runner.run
                ~corrupt_at:(corrupt_all ~n (Round_agreement.corrupt_uniform rng ~bound))
                ~faults ~rounds Round_agreement.protocol
            in
            let a = Solve.assess Round_agreement.spec ~stabilization:1 trace in
            let d = float_of_int a.Solve.measured in
            measured := d :: !measured;
            M.lobserve (M.lhist m "measured_stabilization") d;
            M.inc (M.counter m "trials");
            if a.Solve.solves then begin
              incr holds;
              M.inc (M.counter m "ftss_holds")
            end
          done;
          Table.add_row table
            [
              string_of_int n;
              string_of_int f;
              string_of_int bound;
              string_of_int trials;
              Printf.sprintf "%.0f" (Stats.max !measured);
              Printf.sprintf "%d/%d" !holds trials;
            ])
        [ 10; 1_000; 1_000_000 ])
    [ (3, 1); (5, 2); (8, 3); (12, 5); (16, 7) ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E2 — Figures 2-3 / Theorem 4: the compiler.                         *)
(* ------------------------------------------------------------------ *)

let e2 m =
  let table =
    Table.create
      ~title:
        "E2 (Fig. 2-3 / Thm 4) Compiled repeated consensus: measured stabilization vs the \
         2*final_round bound; iteration agreement"
      [ "n"; "f"; "final_round"; "bound"; "max measured"; "ftss holds"; "iters ok" ]
  in
  List.iter
    (fun (n, f) ->
      let propose p = 50 + p in
      let pi = Omission_consensus.make ~n ~f ~propose in
      let valid d = d >= 50 && d < 50 + n in
      let compiled = Compiler.compile ~n pi in
      let bound = Compiler.stabilization_bound pi in
      let measured = ref [] and holds = ref 0 in
      let total_iters = ref 0 and agreeing_iters = ref 0 in
      for seed = 1 to trials do
        let rng = Rng.create ((seed * 131) + n) in
        let rounds = Rng.int_in rng 30 60 in
        let faults = Faults.random_omission rng ~n ~f ~p_drop:0.4 ~rounds in
        let corrupt =
          Compiler.corrupt rng ~pi ~n ~c_bound:1000 ~corrupt_s:(fun rng p s ->
              Omission_consensus.corrupt_state rng ~n p s)
        in
        let trace = Runner.run ~corrupt_at:(corrupt_all ~n corrupt) ~faults ~rounds compiled in
        let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
        let a = Solve.assess spec ~stabilization:bound trace in
        let d = float_of_int a.Solve.measured in
        measured := d :: !measured;
        M.lobserve (M.lhist m "measured_stabilization") d;
        if a.Solve.solves then incr holds;
        let completed, agreeing =
          Repeated.count_agreeing_iterations trace ~faulty:(Faults.faulty faults) ~valid
        in
        total_iters := !total_iters + completed;
        agreeing_iters := !agreeing_iters + agreeing;
        M.add (M.counter m "iterations") completed;
        M.add (M.counter m "agreeing_iterations") agreeing
      done;
      Table.add_row table
        [
          string_of_int n;
          string_of_int f;
          string_of_int pi.Canonical.final_round;
          string_of_int bound;
          Printf.sprintf "%.0f" (Stats.max !measured);
          Printf.sprintf "%d/%d" !holds trials;
          Printf.sprintf "%d/%d" !agreeing_iters !total_iters;
        ])
    [ (3, 1); (5, 1); (5, 2); (8, 3); (12, 4) ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 1: the impossibility scenario.                          *)
(* ------------------------------------------------------------------ *)

let e3 m =
  let table =
    Table.create
      ~title:
        "E3 (Thm 1) Tentative-definition impossibility: suffix indistinguishable from a \
         fresh run; reconciliation vs rate dichotomy"
      [ "isolation"; "gap"; "suffix = fresh run"; "rate violated at"; "rate-obeying agrees"; "confirmed" ]
  in
  List.iter
    (fun (isolation, c_p, c_q) ->
      let r = Impossibility.Theorem1.run ~isolation ~c_p ~c_q ~suffix:10 in
      if Impossibility.Theorem1.confirms_theorem r then M.inc (M.counter m "theorem1_confirmed");
      Table.add_row table
        [
          string_of_int isolation;
          string_of_int r.Impossibility.Theorem1.gap_at_suffix;
          string_of_bool r.Impossibility.Theorem1.suffix_matches_fresh_run;
          (match r.Impossibility.Theorem1.rate_violation_round with
          | Some x -> "suffix round " ^ string_of_int x
          | None -> "never");
          string_of_bool (not r.Impossibility.Theorem1.rate_obeying_never_agrees);
          string_of_bool (Impossibility.Theorem1.confirms_theorem r);
        ])
    [ (1, 2, 9); (4, 100, 3); (8, 42, 7); (16, 1_000_000, 1); (32, 5, 6) ];
  Table.print table;
  print_newline ();
  (* The companion restriction (§2, [KP90]): terminating protocols cannot
     tolerate systemic failures — the halt state is absorbing. *)
  let kp90 =
    Table.create
      ~title:
        "E3b ([KP90] / §2) Terminating protocols cannot self-stabilize: corrupted-halted \
         baseline vs the compiled repetition, same Π"
      [ "n"; "f"; "rounds"; "baseline ever decides"; "compiled decides repeatedly"; "claim confirmed" ]
  in
  List.iter
    (fun (n, f) ->
      let rounds = 25 in
      let r = Impossibility.Kp90.run ~n ~f ~rounds in
      if Impossibility.Kp90.confirms_claim r then M.inc (M.counter m "kp90_confirmed");
      kp90 |> fun t ->
      Table.add_row t
        [
          string_of_int n;
          string_of_int f;
          string_of_int rounds;
          string_of_bool r.Impossibility.Kp90.baseline_ever_decides;
          string_of_bool r.Impossibility.Kp90.compiled_decides_repeatedly;
          string_of_bool (Impossibility.Kp90.confirms_claim r);
        ])
    [ (2, 0); (3, 1); (5, 2); (8, 3) ];
  Table.print kp90

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 2: uniformity impossibility.                            *)
(* ------------------------------------------------------------------ *)

let e4 m =
  let table =
    Table.create
      ~title:
        "E4 (Thm 2) Uniform (halt-before-harm) protocols: identical views force halting a \
         correct process; never halting violates uniformity"
      [ "silence threshold"; "views identical"; "halts correct"; "uniformity violated"; "confirmed" ]
  in
  List.iter
    (fun threshold ->
      let r =
        Impossibility.Theorem2.run ~silence_threshold:threshold ~c_p:13 ~c_q:2
          ~rounds:(threshold + 8)
      in
      if Impossibility.Theorem2.confirms_theorem r then M.inc (M.counter m "theorem2_confirmed");
      Table.add_row table
        [
          string_of_int threshold;
          string_of_bool r.Impossibility.Theorem2.views_identical;
          string_of_bool r.Impossibility.Theorem2.self_checking_halts_correct_process;
          string_of_bool r.Impossibility.Theorem2.never_halting_violates_uniformity;
          string_of_bool (Impossibility.Theorem2.confirms_theorem r);
        ])
    [ 1; 2; 4; 8; 16 ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E5 — Figure 4 / Theorem 5: the ◇W → ◇S transform.                    *)
(* ------------------------------------------------------------------ *)

(* The sweep E5 and E9 share: 15 seeds of the ◇W → ◇S layer per row, at
   GST 300, with [crash_count] crashes [crash_spacing] apart from t=100.
   [source] builds the ◇W input for a seed; the corruption draws from
   seed + [corrupt_seed], and each of [corruptions] is a row label and
   the counter bound, [None] for a clean start. *)
let detector_sweep m ~title ~corrupt_column ~crash_spacing ~source ?trusted ~corrupt_seed
    corruptions =
  let open Ftss_async in
  let table =
    Table.create ~title
      [ "n"; "crashes"; corrupt_column; "trials"; "converged"; "mean conv - GST"; "p95" ]
  in
  let gst = 300 in
  List.iter
    (fun (n, crash_count) ->
      let crashes = List.init crash_count (fun i -> (n - 1 - i, 100 + (i * crash_spacing))) in
      List.iter
        (fun (label, num_bound) ->
          let convs = ref [] and converged = ref 0 in
          let sub_trials = 15 in
          for seed = 1 to sub_trials do
            let config =
              {
                (Sim.default_config ~n ~seed) with
                Sim.gst;
                horizon = 3000;
                tick_interval = 10;
                delay_before_gst = (1, 80);
                delay_after_gst = (1, 5);
                crashes;
              }
            in
            let source = source ~n ~seed ~gst ~crashed:(fun p -> List.assoc_opt p crashes) in
            let rng = Rng.create (seed + corrupt_seed) in
            let corrupt_at =
              match num_bound with
              | Some num_bound -> corrupt_all ~n (fun _ -> Esfd.Layer.corrupt rng ~num_bound)
              | None -> []
            in
            let result = Sim.run ~corrupt_at config (Esfd.process ~n ~source ()) in
            M.inc (M.counter m "trials");
            match (Esfd.analyze ?trusted result ~config).Esfd.convergence with
            | Sim.Stabilized t ->
              incr converged;
              M.inc (M.counter m "converged");
              M.lobserve (M.lhist m "convergence_after_gst") (float_of_int (max 0 (t - gst)));
              convs := float_of_int (max 0 (t - gst)) :: !convs
            | Sim.Not_within_horizon | Sim.Vacuous -> ()
          done;
          Table.add_row table
            [
              string_of_int n;
              string_of_int crash_count;
              label;
              string_of_int sub_trials;
              Printf.sprintf "%d/%d" !converged sub_trials;
              (if !convs = [] then "-" else Printf.sprintf "%.0f" (Stats.mean !convs));
              (if !convs = [] then "-" else Printf.sprintf "%.0f" (Stats.percentile 95.0 !convs));
            ])
        corruptions)
    [ (3, 1); (5, 1); (5, 2); (9, 4) ];
  Table.print table

let e5 m =
  let trusted = 0 in
  detector_sweep m
    ~title:
      "E5 (Fig. 4 / Thm 5) Initialization-free ESFD: convergence after GST, from clean \
       vs corrupted detector tables (GST = 300; times are sim units past GST)"
    ~corrupt_column:"corrupt bound" ~crash_spacing:150
    ~source:(fun ~n ~seed ~gst ~crashed ->
      Ftss_async.(Esfd.Oracle (Ewfd.make (Rng.create (seed + 1)) ~n ~crashed ~gst ~trusted ~noise:0.3)))
    ~trusted ~corrupt_seed:2
    [ ("clean", None); ("1000", Some 1_000); ("100000", Some 100_000) ]

(* ------------------------------------------------------------------ *)
(* E6 — §3: asynchronous repeated consensus, ss vs baseline.            *)
(* ------------------------------------------------------------------ *)

(* The §3 consensus runs of E6 and E8b: n=5, seed 9, no crashes, the
   scripted oracle trusting p1 (quiet under the parked deadlock, which
   plants every process in round 6, coordinated by p1). *)
let consensus_propose p i = 100 + (((p * 13) + (i * 7)) mod 50)

let consensus_run ~style ~corruption =
  let open Ftss_async in
  let n = 5 and seed = 9 and trusted = 1 in
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
  let noise = match corruption with `Parked -> 0.0 | `None | `Random -> 0.2 in
  let oracle =
    Ewfd.make (Rng.create (seed + 7)) ~n ~crashed:(fun _ -> None) ~gst:config.Sim.gst
      ~trusted ~noise
  in
  let corrupt_at =
    match corruption with
    | `None -> []
    | `Random ->
      corrupt_all ~n
        (Consensus.corrupt_random (Rng.create (seed + 3)) ~instance_bound:20
           ~round_bound:30 ~value_bound:90)
    | `Parked -> corrupt_all ~n (Consensus.corrupt_parked ~round:6)
  in
  let result =
    Sim.run ~corrupt_at config
      (Consensus.process ~n ~style ~propose:consensus_propose ~detector:(Esfd.Oracle oracle)
         ())
  in
  (config, result)

let e6 m =
  let open Ftss_async in
  let table =
    Table.create
      ~title:
        "E6 (§3) Repeated consensus from systemic corruption: baseline CT vs the \
         self-stabilizing superimposition (n=5, GST=300, horizon=4000)"
      [ "style"; "corruption"; "decided"; "disagree"; "invalid"; "stabilized at"; "decided after stab" ]
  in
  let n = 5 and propose = consensus_propose in
  List.iter
    (fun (style, style_name) ->
      List.iter
        (fun (corruption, corruption_name) ->
          let config, result = consensus_run ~style ~corruption in
          let correct = Sim.correct_set config in
          let ds = Consensus.decisions result in
          let grouped = Consensus.per_instance ds ~correct in
          let stab = Consensus.stabilization_time result ~config ~propose in
          M.add (M.counter m "decided_instances") (List.length grouped);
          (match stab with
          | Sim.Stabilized t -> M.lobserve (M.lhist m "stabilized_at") (float_of_int t)
          | Sim.Not_within_horizon -> M.inc (M.counter m "never_stabilized")
          | Sim.Vacuous -> M.inc (M.counter m "vacuous"));
          Table.add_row table
            [
              style_name;
              corruption_name;
              string_of_int (List.length grouped);
              string_of_int (List.length (Consensus.disagreements grouped));
              string_of_int (List.length (Consensus.invalid_instances grouped ~propose ~n));
              (match stab with
              | Sim.Stabilized t -> "t=" ^ string_of_int t
              | Sim.Not_within_horizon -> "never"
              | Sim.Vacuous -> "vacuous");
              (match stab with
              | Sim.Stabilized t ->
                string_of_int (Consensus.fully_decided_after ds ~correct ~from:t)
              | Sim.Not_within_horizon | Sim.Vacuous -> "-");
            ])
        [ (`None, "none"); (`Random, "random"); (`Parked, "parked (deadlock)") ])
    [ (Consensus.baseline, "baseline"); (Consensus.self_stabilizing, "self-stab") ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E7 — §2.3: destabilization by late revelation; re-stabilization.     *)
(* ------------------------------------------------------------------ *)

let e7 m =
  let table =
    Table.create
      ~title:
        "E7 (§2.3) Piece-wise stability: a mute process reveals itself at round R with a \
         corrupted round variable; agreement re-established within the stabilization time"
      [ "protocol"; "reveal round"; "windows"; "max measured stab"; "ftss holds" ]
  in
  let reveal_rounds = [ 5; 10; 20; 40 ] in
  (* One row per trace, from one causality analysis. *)
  let row label reveal spec ~stabilization trace =
    let a = Solve.assess spec ~stabilization trace in
    M.lobserve (M.lhist m "measured_stabilization") (float_of_int a.Solve.measured);
    Table.add_row table
      [
        label;
        reveal;
        string_of_int a.Solve.windows;
        string_of_int a.Solve.measured;
        string_of_bool a.Solve.solves;
      ]
  in
  let n = 4 in
  let round_agreement label reveal ~corrupt ~faults ~rounds =
    row label reveal Round_agreement.spec ~stabilization:1
      (Runner.run ~corrupt_at:(corrupt_all ~n corrupt) ~faults ~rounds Round_agreement.protocol)
  in
  let mute reveal = Faults.Mute { pid = n - 1; first = 1; last = reveal - 1 } in
  (* Round agreement under a late reveal, whole and *partial*: in the
     partial reveal the revealed message reaches only some correct
     processes in the reveal round and must be relayed — the case that
     genuinely consumes Theorem 3's one-round stabilization allowance. *)
  List.iter
    (fun (label, extra) ->
      List.iter
        (fun reveal ->
          round_agreement label (string_of_int reveal)
            ~corrupt:(fun p c -> if p = n - 1 then 500_000 else c + (p * 7))
            ~faults:(Faults.of_events ~n (mute reveal :: extra reveal))
            ~rounds:(reveal + 25))
        reveal_rounds;
      Table.add_separator table)
    [
      ("round-agreement", fun _ -> []);
      ( "round-agreement (partial reveal)",
        fun reveal -> [ Faults.Drop { src = n - 1; dst = 0; round = reveal } ] );
    ];
  (* Rolling mute: the victim alternates silence and participation.
     Because the coterie is monotone (happened-before only grows), only
     the *first* reveal is a destabilizing event; every later mute/talk
     cycle must be absorbed with the spec intact — which is what the
     constant window count (3) and the ftss verdict certify. *)
  List.iter
    (fun period ->
      let rounds = 8 * period in
      round_agreement "round-agreement (rolling mute)"
        (Printf.sprintf "every %d" (2 * period))
        ~corrupt:(fun p c -> c + (p * 1000))
        ~faults:(Faults.rolling_mute ~n ~victim:(n - 1) ~period ~rounds)
        ~rounds)
    [ 2; 4; 6 ];
  Table.add_separator table;
  (* Compiled consensus under a late reveal. *)
  let f = 1 in
  let propose p = 50 + p in
  let pi = Omission_consensus.make ~n ~f ~propose in
  let valid d = d >= 50 && d < 50 + n in
  let compiled = Compiler.compile ~n pi in
  let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
  List.iter
    (fun reveal ->
      let corrupt_at = [ (0, n - 1, fun st -> { st with Compiler.c = 1_000_000 }) ] in
      let faults = Faults.of_events ~n [ mute reveal ] in
      row "compiled consensus" (string_of_int reveal) spec
        ~stabilization:(Compiler.stabilization_bound pi)
        (Runner.run ~corrupt_at ~faults ~rounds:(reveal + 30) compiled))
    reveal_rounds;
  Table.print table

(* ------------------------------------------------------------------ *)
(* E8 — ablations of the paper's mechanisms.                            *)
(* ------------------------------------------------------------------ *)

(* E8a: the compiler's suspect filter (§2.4's "insidious" case).
   A faulty process q is deaf forever, so its round variable diverges and
   every message it sends is out-of-date. The adversary delivers q's
   stale state (which carries the globally minimal value) to exactly one
   correct process, and only in the final round of each Π iteration — too
   late for the full-information exchange to relay it to the other
   correct process. With the filter, q's wrong round tags put it in every
   suspect set and its state is ignored symmetrically. Without the
   filter, one correct process decides q's stale minimum and the other
   does not: agreement breaks in iteration after iteration, forever. *)
let e8_compiler m =
  let table =
    Table.create
      ~title:
        "E8a Ablation: the Figure 3 suspect filter (faulty deaf process feeding stale \
         state to one process in each iteration's last round; claim: filter necessary)"
      [ "suspect filter"; "rounds"; "iterations"; "agreeing"; "Σ⁺ ftss holds" ]
  in
  let n = 3 and f = 1 in
  (* Π is *plain* flooding — no internal filter of its own, so the
     compiler's suspect set is its only protection (using the
     suspect-filtered Π here would mask the ablation: its internal
     distrust performs the same job). q = 0 proposes the global minimum;
     p1 never hears it; p2 hears it only in final-iteration rounds
     (k = final_round at rounds ≡ 0 mod final_round from the clean
     start c = 1). *)
  let propose p = 50 + p in
  let pi = Flooding_consensus.make ~f ~propose in
  let valid d = d >= 50 && d < 50 + n in
  let rounds = 60 in
  let faults =
    Faults.of_events ~n
      (Faults.Deaf { pid = 0; first = 1; last = rounds }
      :: List.concat_map
           (fun r ->
             Faults.Drop { src = 0; dst = 1; round = r }
             :: (if r mod pi.Canonical.final_round <> 0 then
                   [ Faults.Drop { src = 0; dst = 2; round = r } ]
                 else []))
           (List.init rounds (fun i -> i + 1)))
  in
  (* q's round variable starts out of step and, being deaf, never
     reconciles. *)
  let corrupt_at = [ (0, 0, fun st -> { st with Compiler.c = 5 }) ] in
  List.iter
    (fun suspect_filter ->
      let compiled = Compiler.compile ~suspect_filter ~n pi in
      let trace = Runner.run ~corrupt_at ~faults ~rounds compiled in
      let spec = Repeated.round_and_sigma ~final_round:pi.Canonical.final_round ~valid () in
      let holds =
        Solve.ftss_solves spec ~stabilization:(Compiler.stabilization_bound pi) trace
      in
      let completed, agreeing =
        Repeated.count_agreeing_iterations trace ~faulty:(Faults.faulty faults) ~valid
      in
      M.set
        (M.gauge m (Printf.sprintf "e8a_agreeing.filter=%b" suspect_filter))
        (float_of_int agreeing);
      Table.add_row table
        [
          string_of_bool suspect_filter;
          string_of_int rounds;
          string_of_int completed;
          string_of_int agreeing;
          string_of_bool holds;
        ])
    [ true; false ];
  Table.print table

(* E8b: the two superimpositions of the §3 consensus protocol, ablated
   independently, against the two corruption patterns. Retransmission is
   what dissolves the parked deadlock; round agreement is what lets
   processes scattered across (instance, round) positions find each
   other. The paper's protocol needs both. *)
let e8_consensus m =
  let open Ftss_async in
  let table =
    Table.create
      ~title:
        "E8b Ablation: retransmission vs round agreement in §3 consensus (n=5, \
         instances fully decided by all correct processes after GST=300)"
      [ "retransmit"; "round agreement"; "clean"; "parked"; "random scatter" ]
  in
  List.iter
    (fun style ->
      let cell name corruption =
        let config, result = consensus_run ~style ~corruption in
        let v =
          Consensus.fully_decided_after (Consensus.decisions result)
            ~correct:(Sim.correct_set config) ~from:config.Sim.gst
        in
        M.set
          (M.gauge m
             (Printf.sprintf "e8b_decided.rt=%b,ra=%b.%s" style.Consensus.retransmit
                style.Consensus.round_agreement name))
          (float_of_int v);
        string_of_int v
      in
      Table.add_row table
        [
          string_of_bool style.Consensus.retransmit;
          string_of_bool style.Consensus.round_agreement;
          cell "clean" `None;
          cell "parked" `Parked;
          cell "random" `Random;
        ])
    Consensus.[ baseline; retransmit_only; round_agreement_only; self_stabilizing ];
  Table.print table

let e8 m =
  e8_compiler m;
  print_newline ();
  e8_consensus m

(* ------------------------------------------------------------------ *)
(* E9 — the oracle-free detector stack (extension).                     *)
(* ------------------------------------------------------------------ *)

(* The paper assumes a ◇W detector is given; E9 discharges the
   assumption inside the model: heartbeats with adaptive timeouts
   implement ◇W, Figure 4 transforms it to ◇S, and the whole stack —
   with deadlines, timeouts and num/state tables all corrupted — still
   converges. *)
let e9 m =
  detector_sweep m
    ~title:
      "E9 Oracle-free stack: heartbeat ◇W + Figure 4 ◇S, clean vs fully-corrupted \
       detector state (GST=300; convergence in sim units past GST)"
    ~corrupt_column:"corrupted" ~crash_spacing:100
    ~source:(fun ~n:_ ~seed:_ ~gst:_ ~crashed:_ -> Ftss_async.Esfd.Heartbeats)
    ~corrupt_seed:13
    [ ("false", None); ("true", Some 5_000) ]

(* ------------------------------------------------------------------ *)
(* E10 — §3 remark: synchronous but not perfectly synchronized.         *)
(* ------------------------------------------------------------------ *)

let e10 m =
  let open Ftss_async in
  let table =
    Table.create
      ~title:
        "E10 (§3 remark) Round agreement with staggered steps and bounded delays: \
         neighbourhood agreement (spread <= 2 + ceil(delay/round)) from corrupted state"
      [ "n"; "max delay"; "round len"; "bound"; "trials"; "converged"; "max final spread" ]
  in
  List.iter
    (fun (n, max_delay, tick) ->
      let sub_trials = 15 in
      let converged = ref 0 and worst = ref 0 in
      let bound = ref 0 in
      for seed = 1 to sub_trials do
        let config =
          {
            (Sim.default_config ~n ~seed) with
            Sim.gst = 0;
            horizon = 2000;
            tick_interval = tick;
            delay_before_gst = (1, max_delay);
            delay_after_gst = (1, max_delay);
          }
        in
        bound := Drift.spread_bound config;
        let rng = Rng.create (seed + 99) in
        let result =
          Sim.run ~corrupt_at:(corrupt_all ~n (Drift.corrupt rng ~bound:1_000_000)) config
            Drift.process
        in
        let report = Drift.analyze result ~config in
        (match report.Drift.converged with
        | Sim.Stabilized _ ->
          incr converged;
          M.inc (M.counter m "converged")
        | Sim.Not_within_horizon | Sim.Vacuous -> ());
        M.lobserve (M.lhist m "final_spread") (float_of_int report.Drift.final_spread);
        worst := max !worst report.Drift.final_spread
      done;
      Table.add_row table
        [
          string_of_int n;
          string_of_int max_delay;
          string_of_int tick;
          string_of_int !bound;
          string_of_int sub_trials;
          Printf.sprintf "%d/%d" !converged sub_trials;
          string_of_int !worst;
        ])
    [ (3, 5, 10); (5, 8, 10); (5, 15, 10); (9, 8, 10); (9, 30, 10) ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E11 — ftss_check: exhaustive adversary exploration vs. randomized    *)
(* sampling, with parallel-explorer speedup.                            *)
(* ------------------------------------------------------------------ *)

let e11 m =
  let open Ftss_check in
  let table =
    Table.create
      ~title:
        "E11 (ftss_check) Exhaustive adversary exploration: verdicts, dedup \
         hit-rate, equal-budget random-sampling coverage, domain speedup"
      [
        "property"; "inject"; "n"; "r"; "f"; "cases"; "distinct"; "dedup%"; "viol";
        "stepped%"; "words/case"; "rand cov%"; "t x1 (s)"; "t xN (s)"; "speedup";
      ]
  in
  let domains_n = max 2 (Ftss_profile.Pool.available ()) in
  let row name inject n rounds f =
    match Property.find ~name ~inject with
    | Error msg -> failwith msg
    | Ok prop ->
      let params =
        prop.Property.restrict
          { Schedule_enum.n; rounds; f; intervals = true; drops = true }
      in
      let cases = Schedule_enum.enumerate params in
      let total = Array.length cases in
      let stats1, fingerprints = Explore.run ~domains:1 prop cases in
      (* What holding the one-domain run's returned array costs: live
         words while it is reachable less live words once it is not,
         each after a full major collection. Measured on release rather
         than against a pre-run baseline, so garbage that finished worker
         domains of earlier runs left in their pools, which the run
         itself may sweep, stays out of it. *)
      let live_words () =
        Gc.full_major ();
        (Gc.quick_stat ()).Gc.live_words
      in
      let retained =
        let held = live_words () in
        ignore (Sys.opaque_identity fingerprints);
        held - live_words ()
      in
      let stats_n, _ = Explore.run ~domains:domains_n prop cases in
      (* Equal-budget random sampling: how much of the space do [total]
         independent draws even visit? Coupon-collector says about
         1 - 1/e ~ 63% — the gap is what exhaustiveness buys. *)
      let rng = Rng.create 42 in
      let seen = Hashtbl.create total in
      for _ = 1 to total do
        Hashtbl.replace seen (Rng.int rng total) ()
      done;
      let coverage =
        100. *. float_of_int (Hashtbl.length seen) /. float_of_int total
      in
      let speedup =
        if stats_n.Explore.elapsed > 0. then
          stats1.Explore.elapsed /. stats_n.Explore.elapsed
        else 0.
      in
      M.add (M.counter m "cases") total;
      M.add (M.counter m "states") stats1.Explore.states;
      M.lobserve (M.lhist m "speedup") speedup;
      (* Single-domain throughput per row, so BENCH_E11.json tracks the
         engine's per-case cost over time. *)
      M.set
        (M.gauge m (Printf.sprintf "runs_per_sec_x1.%s.%s.n%d.r%d.f%d" name inject n rounds f))
        (Explore.runs_per_sec stats1);
      M.set
        (M.gauge m (Printf.sprintf "states_per_sec_x1.%s.%s.n%d.r%d.f%d" name inject n rounds f))
        (Explore.states_per_sec stats1);
      let words_per_case = float_of_int retained /. float_of_int (max 1 total) in
      M.set
        (M.gauge m
           (Printf.sprintf "retained_words_per_case.%s.%s.n%d.r%d.f%d" name inject n rounds f))
        words_per_case;
      (* The share of the covered process-round states the prefix-shared
         walk actually computed. *)
      let stepped_fraction =
        float_of_int stats1.Explore.stepped /. float_of_int (max 1 stats1.Explore.states)
      in
      M.set
        (M.gauge m (Printf.sprintf "stepped_fraction.%s.%s.n%d.r%d.f%d" name inject n rounds f))
        stepped_fraction;
      Table.add_row table
        [
          name; inject; string_of_int n; string_of_int rounds; string_of_int f;
          string_of_int total;
          string_of_int stats1.Explore.distinct;
          Printf.sprintf "%.1f" (100. *. Explore.dedup_rate stats1);
          string_of_int (List.length stats1.Explore.violations);
          Printf.sprintf "%.1f" (100. *. stepped_fraction);
          Printf.sprintf "%.2f" words_per_case;
          Printf.sprintf "%.1f" coverage;
          Printf.sprintf "%.2f" stats1.Explore.elapsed;
          Printf.sprintf "%.2f" stats_n.Explore.elapsed;
          Printf.sprintf "%.2fx @ %d" speedup domains_n;
        ]
  in
  row "theorem3" "none" 3 3 1;
  row "theorem3" "none" 4 2 2;
  row "theorem3" "frozen-exchange" 3 3 1;
  row "theorem4" "none" 3 9 1;
  row "theorem4" "no-suspect-filter" 3 9 1;
  row "theorem5" "none" 3 3 1;
  Table.print table;
  (* Symmetry-reduced exploration: the same sweeps with [~canonical:true]
     execute one representative per pid-permutation orbit and scatter the
     verdict. At enumeration-sized spaces the full pass double-checks the
     verdict equivalence; at n=200 the orbit collapse is what makes an
     exhaustive theorem-3 sweep feasible at all (the full pass would be
     hundreds of thousands of 200-process runs, so it is skipped). *)
  let ctable =
    Table.create
      ~title:
        "E11b (ftss_check) Symmetry-reduced exploration: orbit collapse and \
         verdict equivalence under --canonical"
      [
        "property"; "inject"; "n"; "r"; "f"; "cases"; "orbits"; "reduction";
        "viol"; "=full"; "t canon (s)";
      ]
  in
  let crow name inject n rounds f =
    match Property.find ~name ~inject with
    | Error msg -> failwith msg
    | Ok prop ->
      let params =
        prop.Property.restrict
          { Schedule_enum.n; rounds; f; intervals = true; drops = true }
      in
      let cases = Schedule_enum.enumerate params in
      let total = Array.length cases in
      let cstats, _ = Explore.run ~domains:1 ~canonical:true prop cases in
      let equal_to_full =
        if total > 10_000 then "skipped"
        else begin
          let stats, _ = Explore.run ~domains:1 prop cases in
          if stats.Explore.violations = cstats.Explore.violations then "yes"
          else "NO"
        end
      in
      M.set
        (M.gauge m (Printf.sprintf "canonical_orbits.%s.%s.n%d.r%d.f%d" name inject n rounds f))
        (float_of_int cstats.Explore.orbits);
      M.set
        (M.gauge m
           (Printf.sprintf "canonical_runs_per_sec.%s.%s.n%d.r%d.f%d" name inject n rounds f))
        (Explore.runs_per_sec cstats);
      Table.add_row ctable
        [
          name; inject; string_of_int n; string_of_int rounds; string_of_int f;
          string_of_int total;
          string_of_int cstats.Explore.orbits;
          Printf.sprintf "%.1fx" (Explore.symmetry_reduction cstats);
          string_of_int (List.length cstats.Explore.violations);
          equal_to_full;
          Printf.sprintf "%.2f" cstats.Explore.elapsed;
        ]
  in
  crow "theorem3" "none" 3 3 1;
  crow "theorem3" "frozen-exchange" 3 3 1;
  crow "theorem3" "none" 200 2 1;
  Table.print ctable

(* E12 — ftss_fuzz: coverage-guided fuzzing vs. the exhaustive checker.  *)

let e12 m =
  let open Ftss_check in
  let module Mu = Ftss_fuzz.Mutate in
  let module F = Ftss_fuzz.Fuzz in
  let table =
    Table.create
      ~title:
        "E12 (ftss_fuzz) Coverage-guided adversary fuzzing: throughput, corpus \
         growth, the seed-phase differential oracle against the exhaustive \
         checker, and beyond-catalogue violations found by mutation"
      [
        "property"; "inject"; "n"; "r"; "f"; "budget"; "execs/s"; "corpus";
        "cov pts"; "exh viol"; "seed viol"; "oracle"; "mut viol"; "min size";
      ]
  in
  let row name inject n rounds f ~extra =
    match Property.find ~name ~inject with
    | Error msg -> failwith msg
    | Ok prop ->
      let sp =
        prop.Property.restrict
          { Schedule_enum.n; rounds; f; intervals = true; drops = true }
      in
      let cases = Schedule_enum.enumerate sp in
      let stats_exh, fingerprints = Explore.run ~domains:1 prop cases in
      let exh_fps =
        List.sort_uniq String.compare
          (List.map
             (fun i -> prop.Property.fingerprint_hex fingerprints.(i))
             stats_exh.Explore.violations)
      in
      let budget = Array.length cases + extra in
      let config =
        {
          F.seed = 1;
          budget = F.Cases budget;
          domains = 0;
          params = { Mu.n; rounds; f; allow_drops = true };
          corpus_dir = None;
        }
      in
      let stats =
        match F.run config prop with Ok s -> s | Error msg -> failwith msg
      in
      let seed_v, mut_v =
        List.partition (fun v -> v.F.v_seed) stats.F.violations
      in
      let seed_fps =
        List.sort_uniq String.compare (List.map (fun v -> v.F.v_fingerprint) seed_v)
      in
      (* The differential oracle: the seed phase alone must rediscover
         exactly the exhaustive violation set. *)
      let oracle = seed_fps = exh_fps in
      let min_size =
        match stats.F.violations with
        | [] -> "-"
        | vs ->
          string_of_int
            (List.fold_left (fun acc v -> min acc (Mu.size v.F.v_shrunk)) max_int vs)
      in
      M.add (M.counter m "execs") stats.F.execs;
      M.add (M.counter m "mutation_violations") (List.length mut_v);
      M.set
        (M.gauge m (Printf.sprintf "oracle_agreement.%s.%s.n%d.r%d.f%d" name inject n rounds f))
        (if oracle then 1. else 0.);
      M.set
        (M.gauge m (Printf.sprintf "execs_per_sec.%s.%s.n%d.r%d.f%d" name inject n rounds f))
        stats.F.execs_per_sec;
      M.set
        (M.gauge m (Printf.sprintf "coverage_points.%s.%s.n%d.r%d.f%d" name inject n rounds f))
        (float_of_int stats.F.coverage_points);
      Table.add_row table
        [
          name; inject; string_of_int n; string_of_int rounds; string_of_int f;
          string_of_int budget;
          Printf.sprintf "%.0f" stats.F.execs_per_sec;
          string_of_int stats.F.corpus_size;
          string_of_int stats.F.coverage_points;
          string_of_int (List.length exh_fps);
          string_of_int (List.length seed_fps);
          (if oracle then "agree" else "DISAGREE");
          string_of_int (List.length mut_v);
          min_size;
        ]
  in
  row "theorem3" "none" 3 3 1 ~extra:1500;
  row "theorem3" "frozen-exchange" 3 3 1 ~extra:1500;
  row "theorem4" "none" 3 4 1 ~extra:1500;
  (* E11's negative result: no single-behaviour catalogue case violates
     the unfiltered suspect rule. The fuzzer's mutation phase escapes
     the catalogue and finds the E8a composite adversary. *)
  row "theorem4" "no-suspect-filter" 3 6 1 ~extra:4000;
  row "theorem5" "none" 3 3 1 ~extra:300;
  Table.print table

(* ------------------------------------------------------------------ *)
(* E14 — the service tower: self-stabilizing total-order broadcast +   *)
(* replicated KV under a million-session open workload with burst      *)
(* arrivals, mid-run corruption storms, omission windows and crashes.  *)
(* ------------------------------------------------------------------ *)

let e14 m =
  let module W = Ftss_service.Workload in
  let module T = Ftss_service.Tob in
  let module S = Ftss_service.Service in
  let table =
    Table.create
      ~title:
        "E14 (service tower) TOB + replicated KV, n=5: end-to-end commit latency, \
         throughput, convergence and recovery under corruption storms / omission / \
         crashes"
      [
        "row"; "style"; "ops"; "unique committed"; "slots"; "converged"; "agree";
        "p50"; "p99"; "ops/s"; "recov"; "heal (max ticks)";
      ]
  in
  let n = 5 in
  let headline = ref None in
  let row ~label ~style ~ops ~sessions ~window ~batch_max ~faults ~headline:is_headline () =
    let wl =
      W.create ~n
        { W.default_spec with W.ops; sessions; window; seed = 101 }
    in
    let params =
      { (S.default_params ~n ~seed:202) with S.style; batch_max; faults }
    in
    let minor0, promoted0, major0 = Gc.counters () in
    let r = S.run ~wl params in
    let minor1, promoted1, major1 = Gc.counters () in
    if is_headline then begin
      let per_op w = w /. float_of_int (max 1 r.S.unique_ops) in
      let direct0 = major0 -. promoted0 and direct1 = major1 -. promoted1 in
      headline :=
        Some
          ( r,
            per_op (minor1 -. minor0),
            per_op (promoted1 -. promoted0),
            per_op (direct1 -. direct0) )
    end;
    let lat f = match r.S.latency with Some l -> f l | None -> Float.nan in
    let heal =
      List.fold_left
        (fun acc (_, _, h) -> match h with Some h -> max acc h | None -> acc)
        0 r.S.storm_recovery
    in
    (* Gauges: throughput is the tracked (higher-better) headline number;
       latency, recovery and integrity numbers ride along informationally. *)
    M.set (M.gauge m (Printf.sprintf "committed_ops_per_sec.%s.n%d" label n)) r.S.throughput;
    M.set (M.gauge m (Printf.sprintf "latency_ticks_p50.%s" label)) (lat (fun l -> l.S.p50));
    M.set (M.gauge m (Printf.sprintf "latency_ticks_p99.%s" label)) (lat (fun l -> l.S.p99));
    M.set
      (M.gauge m (Printf.sprintf "unique_committed.%s" label))
      (float_of_int r.S.unique_ops);
    M.set
      (M.gauge m (Printf.sprintf "converged.%s" label))
      (if r.S.converged then 1.0 else 0.0);
    M.set
      (M.gauge m (Printf.sprintf "recovery_heal_ticks.%s" label))
      (float_of_int heal);
    M.inc (M.counter m "rows");
    Table.add_row table
      [
        label;
        (if style.T.stabilizing then "self-stab" else "baseline");
        string_of_int ops;
        string_of_int r.S.unique_ops;
        string_of_int r.S.committed_slots;
        (if r.S.converged then "yes" else "NO");
        Printf.sprintf "%d/%d" r.S.slots_agreeing r.S.slots_checked;
        Printf.sprintf "%.0f" (lat (fun l -> l.S.p50));
        Printf.sprintf "%.0f" (lat (fun l -> l.S.p99));
        Printf.sprintf "%.0f" r.S.throughput;
        string_of_int r.S.recoveries;
        (if heal > 0 then string_of_int heal else "-");
      ]
  in
  (* The headline: one bench invocation pushing >= 1M client operations
     end-to-end through consensus -> TOB -> KV, with two mid-run
     corruption storms and an omission window, measured for latency,
     throughput and post-storm recovery. *)
  row ~label:"headline" ~style:T.self_stabilizing ~ops:1_000_000 ~sessions:1_000_000
    ~window:20_000 ~batch_max:1_024
    ~faults:
      {
        S.storms = [ (8_000, 2); (14_000, 2) ];
        omission = [ (5_000, 5_600, 0.25) ];
        crashes = [];
      }
    ~headline:true ();
  (* Recovery time vs. corruption-storm size, at a lighter op count. *)
  List.iter
    (fun victims ->
      row
        ~label:(Printf.sprintf "storm_victims%d" victims)
        ~style:T.self_stabilizing ~ops:100_000 ~sessions:1_000_000 ~window:6_000
        ~batch_max:1_024
        ~faults:{ S.no_faults with S.storms = [ (3_000, victims) ] }
        ~headline:false ())
    [ 1; 2 ];
  (* Fault-free reference, and the ablation: the baseline style (no
     retransmission, no recovery machinery) hit by the same storm. *)
  row ~label:"fault_free" ~style:T.self_stabilizing ~ops:100_000 ~sessions:1_000_000
    ~window:6_000 ~batch_max:1_024 ~faults:S.no_faults ~headline:false ();
  row ~label:"baseline_storm" ~style:T.baseline ~ops:100_000 ~sessions:1_000_000
    ~window:6_000 ~batch_max:1_024
    ~faults:{ S.no_faults with S.storms = [ (3_000, 2) ] }
    ~headline:false ();
  (* Crash + storm + omission combined, as in the convergence property
     test: live-origin ops all commit, live replicas converge. *)
  row ~label:"crash_storm" ~style:T.self_stabilizing ~ops:100_000 ~sessions:1_000_000
    ~window:6_000 ~batch_max:1_024
    ~faults:
      {
        S.storms = [ (3_000, 2) ];
        omission = [ (2_000, 2_400, 0.25) ];
        crashes = [ (4, 3_500) ];
      }
    ~headline:false ();
  Table.print table;
  (* Allocation per committed op on the headline call (one domain, so the
     domain's GC counters see all of it): minor words, words promoted out
     of the minor heap, and words allocated directly in the major heap
     (major minus promoted: blocks above the minor heap's size limit).
     All three are deterministic for a given build and minor heap size,
     and bench/main.ml fixes the minor heap whatever OCAMLRUNPARAM says,
     so they are gated here rather than by bench-diff. *)
  match !headline with
  | None -> ()
  | Some (r, minor, promoted, major) ->
    Format.printf "@.%a@." S.pp_report r;
    M.set (M.gauge m "minor_words_per_op.headline") minor;
    M.set (M.gauge m "promoted_words_per_op.headline") promoted;
    M.set (M.gauge m "major_words_per_op.headline") major;
    Format.printf
      "headline allocation: %.1f minor / %.2f promoted / %.2f direct-major words per \
       committed op (gates: 50 / 2 / 3)@."
      minor promoted major;
    if minor > 50.0 then
      failwith (Printf.sprintf "E14: %.1f minor words per committed op (> 50)" minor);
    if promoted > 2.0 then
      failwith (Printf.sprintf "E14: %.2f promoted words per committed op (> 2)" promoted);
    if major > 3.0 then
      failwith
        (Printf.sprintf "E14: %.2f words per committed op allocated directly in the major heap (> 3)"
           major)

(* ------------------------------------------------------------------ *)
(* Interleaved A/B trials, shared by the overhead experiments E15/E17. *)
(* ------------------------------------------------------------------ *)

(* Runs every [(label, gauge, f)] config once per round, for [rounds]
   rounds, and returns each config's results in round order by label.
   Configs run back to back in rotating order (instead of one cold
   config first), so no config always takes the same (coldest or
   warmest) slot of the interleave; compacting before every trial stops
   one config's heap shape from taxing the next. *)
let ab_trials ~rounds configs =
  let results = Hashtbl.create 4 in
  List.iter
    (fun (label, _, _) -> Hashtbl.replace results label (Array.make rounds None))
    configs;
  let nconf = List.length configs in
  for round = 0 to rounds - 1 do
    for i = 0 to nconf - 1 do
      let label, _, f = List.nth configs ((round + i) mod nconf) in
      Gc.compact ();
      (Hashtbl.find results label).(round) <- Some (f ())
    done
  done;
  fun label -> Array.map Option.get (Hashtbl.find results label)

(* The mean of the top-3 throughputs over a config's trials, with its
   fastest trial: wall-clock noise is one-sided (interference only ever
   slows a trial down), so the fast tail estimates each config's true
   cost floor — averaging the top 3 keeps one freak-fast trial from
   skewing the ratio. *)
let top3_mean trials =
  let module S = Ftss_service.Service in
  let rs =
    List.sort
      (fun ((a : S.report), _) ((b : S.report), _) ->
        compare b.S.throughput a.S.throughput)
      (Array.to_list trials)
  in
  let top3 = [ List.nth rs 0; List.nth rs 1; List.nth rs 2 ] in
  let tp =
    List.fold_left (fun acc ((r : S.report), _) -> acc +. r.S.throughput) 0. top3
    /. 3.
  in
  (tp, List.hd rs)

(* ------------------------------------------------------------------ *)
(* E15 — monitor-plane overhead: the E14 storm scenario with every     *)
(* streaming SLO monitor armed (flight-recorder ring included) vs. no  *)
(* observability at all. Budget: the armed tower stays within 5%.      *)
(* ------------------------------------------------------------------ *)

let e15 m =
  let module W = Ftss_service.Workload in
  let module S = Ftss_service.Service in
  let module Mon = Ftss_monitor.Monitor in
  let table =
    Table.create
      ~title:
        "E15 (monitor overhead) service tower with streaming SLO monitors + flight \
         recorder armed vs. monitors off (budget: <= 5% throughput cost)"
      [ "row"; "ops/s"; "vs off"; "alarms"; "ring seen"; "wall s" ]
  in
  let n = 5 in
  let wl =
    W.create ~n
      { W.default_spec with W.ops = 300_000; sessions = 1_000_000; window = 10_000; seed = 101 }
  in
  let params =
    {
      (S.default_params ~n ~seed:202) with
      S.batch_max = 1_024;
      faults =
        {
          S.storms = [ (4_000, 2); (7_000, 2) ];
          omission = [ (2_500, 2_800, 0.25) ];
          crashes = [];
        };
    }
  in
  (* Loose budgets: every monitor armed and evaluating, none firing —
     the steady-state production configuration. *)
  let loose =
    {
      Mon.stab = Some 1_000_000;
      heal = Some 1_000_000;
      p99 = Some 1e9;
      drop_rate = Some 1.0;
      churn = Some 1e9;
    }
  in
  (* Tight budgets: the same run with alarms actually firing (and the
     damping logic exercised) — alarm cost is not on the happy path. *)
  let tight =
    {
      Mon.stab = Some 5;
      heal = Some 2;
      p99 = Some 5.;
      drop_rate = Some 0.2;
      churn = Some 0.001;
    }
  in
  let bare () = (S.run ~wl params, None) in
  let armed budgets () =
    let obs = Ftss_obs.Obs.create ~record:false ~threadsafe:false () in
    let mon = Mon.create ~n budgets in
    Mon.attach mon obs;
    let r = S.run ~obs ~wl params in
    Mon.finalize mon ~end_time:r.S.end_time;
    (r, Some mon)
  in
  let configs =
    [
      ("monitors off", "monitors_off", bare);
      ("armed (loose budgets)", "armed", armed loose);
      ("armed (tight, alarms firing)", "armed_tight", armed tight);
    ]
  in
  let trials = ab_trials ~rounds:9 configs in
  let best label = top3_mean (trials label) in
  let off_tp = fst (best "monitors off") in
  let row (label, gauge, _) =
    let tp, (r, mon) = best label in
    let vs = if off_tp > 0. then (tp -. off_tp) /. off_tp *. 100. else 0. in
    M.set (M.gauge m (Printf.sprintf "committed_ops_per_sec.%s" gauge)) tp;
    (match mon with
    | Some mon ->
      M.set (M.gauge m (Printf.sprintf "overhead_pct.%s" gauge)) (-.vs);
      M.set
        (M.gauge m (Printf.sprintf "alarms.%s" gauge))
        (float_of_int (Mon.alarm_count mon))
    | None -> ());
    M.inc (M.counter m "rows");
    Table.add_row table
      [
        label;
        Printf.sprintf "%.0f" tp;
        (match mon with None -> "-" | Some _ -> Printf.sprintf "%+.1f%%" vs);
        (match mon with
        | None -> "-"
        | Some mon -> string_of_int (Mon.alarm_count mon));
        (match mon with
        | None -> "-"
        | Some mon -> string_of_int (Mon.ring_seen mon));
        Printf.sprintf "%.2f" r.S.wall_seconds;
      ]
  in
  List.iter row configs;
  Table.print table;
  (* The deterministic number underneath the noisy wall-clock ratio: the
     armed subscriber's marginal cost per event, measured over a tight
     20M-event loop. At the tower's event rate (~0.5M events/s) every
     15ns here is ~0.75% of throughput. *)
  let mon = Mon.create ~n Mon.no_budgets in
  let sub = Mon.subscriber mon in
  let module E = Ftss_obs.Event in
  let evs =
    [|
      E.make ~time:100 (E.Send { src = 0; dst = Some 1 });
      E.make ~time:101 (E.Deliver { src = 0; dst = 1 });
      E.make ~time:101 (E.Send { src = 1; dst = Some 2 });
      E.make ~time:102 (E.Deliver { src = 1; dst = 2 });
      E.make ~time:102 (E.Submit { pid = 0; ops = 3 });
      E.make ~time:103 (E.Commit { pid = 0; slot = 1; ops = 3 });
    |]
  in
  let iters = 20_000_000 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    sub (Array.unsafe_get evs (i land 5))
  done;
  let ns = (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9 in
  M.set (M.gauge m "subscriber_ns_per_call.armed") ns;
  Format.printf "monitor subscriber: %.1f ns/event (%d events through every monitor + ring)@."
    ns iters

(* ------------------------------------------------------------------ *)
(* E16 — simulator engine throughput: calendar queue vs. the seed      *)
(* binary heap on a hold-model workload, end-to-end simulation event   *)
(* rate, and sharded-service scaling with the digest-equality check.   *)
(* ------------------------------------------------------------------ *)

let e16 m =
  let module Q = Ftss_async.Event_queue in
  let module Sim = Ftss_async.Sim in
  let module W = Ftss_service.Workload in
  let module S = Ftss_service.Service in
  let table =
    Table.create
      ~title:
        "E16 (engine throughput) calendar queue vs. seed binary heap (hold model, \
         pop-one/push-one at standing population n*1000), end-to-end sim rate, and \
         sharded-service domain scaling (gates: >= 10x on the n=16 queue row; \
         sharded digests must be domain-count independent; 2-domain parallel \
         efficiency >= 0.5 when nproc >= 2)"
      [ "row"; "events/s"; "vs heap"; "note" ]
  in
  (* Hold model: the standing population stays constant while events
     cycle pop-one/push-one with the simulator's post-GST-like delay
     profile. Wall noise is one-sided, so take the best of 3 trials. *)
  let pops = 1_000_000 in
  let best_of_3 f =
    let best = ref 0.0 in
    for _ = 1 to 3 do
      let r = f () in
      if r > !best then best := r
    done;
    !best
  in
  let hold_heap ~population () =
    let rng = Rng.create 42 in
    let q = Q.Reference.create () in
    for _ = 1 to population do
      Q.Reference.push q ~time:(1 + Rng.int rng 120) ()
    done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to pops do
      match Q.Reference.pop q with
      | Some (t, ()) -> Q.Reference.push q ~time:(t + 1 + Rng.int rng 120) ()
      | None -> assert false
    done;
    float_of_int pops /. (Unix.gettimeofday () -. t0)
  in
  let hold_calendar ~population () =
    let rng = Rng.create 42 in
    let q = Q.create ~initial_capacity:population () in
    for _ = 1 to population do
      Q.push_tagged q ~time:(1 + Rng.int rng 120) ~tag:0 ()
    done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to pops do
      if not (Q.pop_step q) then assert false;
      Q.push_tagged q ~time:(Q.out_time q + 1 + Rng.int rng 120) ~tag:0 ()
    done;
    float_of_int pops /. (Unix.gettimeofday () -. t0)
  in
  List.iter
    (fun n ->
      let population = n * 1000 in
      let heap = best_of_3 (hold_heap ~population) in
      let cal = best_of_3 (hold_calendar ~population) in
      let speedup = cal /. heap in
      M.set (M.gauge m (Printf.sprintf "queue_events_per_sec.heap.n%d" n)) heap;
      M.set (M.gauge m (Printf.sprintf "queue_events_per_sec.calendar.n%d" n)) cal;
      M.set (M.gauge m (Printf.sprintf "queue_speedup.n%d" n)) speedup;
      (* The headline gate is the machine-independent ratio: a wall-clock
         regression moves both rows, a queue regression only one. *)
      if n = 16 && speedup < 10.0 then
        failwith
          (Printf.sprintf
             "E16: calendar queue speedup at n=16 is %.1fx, below the 10x gate"
             speedup);
      M.inc (M.counter m "rows");
      M.inc (M.counter m "rows");
      Table.add_row table
        [
          Printf.sprintf "heap hold n=%d (pop %dk)" n (population / 1000);
          Printf.sprintf "%.2e" heap; "1.0x"; "seed binary heap";
        ];
      Table.add_row table
        [
          Printf.sprintf "calendar hold n=%d" n;
          Printf.sprintf "%.2e" cal;
          Printf.sprintf "%.1fx" speedup;
          (if n = 16 && speedup < 10.0 then "GATE FAIL (< 10x)" else "calendar queue");
        ])
    [ 5; 16; 61 ];
  (* End-to-end: a full async consensus simulation, measured as delivered
     messages + ticks per wall second — the engine rate the queue speedup
     actually buys once protocol work is included. *)
  let sim_rate ~n =
    let propose p i = 100 + (((p * 13) + (i * 7)) mod 50) in
    let config =
      {
        (Sim.default_config ~n ~seed:3) with
        Sim.gst = 50;
        horizon = 3_000;
        tick_interval = 10;
        delay_before_gst = (1, 20);
        delay_after_gst = (1, 4);
      }
    in
    let oracle =
      Ftss_async.Ewfd.make (Rng.create 5) ~n ~crashed:(fun _ -> None)
        ~gst:config.Sim.gst ~trusted:0 ~noise:0.1
    in
    best_of_3 (fun () ->
        let t0 = Unix.gettimeofday () in
        let r =
          Sim.run config
            (Ftss_async.Consensus.process ~n
               ~style:Ftss_async.Consensus.self_stabilizing ~propose
               ~detector:(Ftss_async.Esfd.Oracle oracle) ())
        in
        float_of_int r.Sim.delivered /. (Unix.gettimeofday () -. t0))
  in
  List.iter
    (fun n ->
      let rate = sim_rate ~n in
      M.set (M.gauge m (Printf.sprintf "sim_events_per_sec.n%d" n)) rate;
      M.inc (M.counter m "rows");
      Table.add_row table
        [
          Printf.sprintf "end-to-end consensus n=%d" n;
          Printf.sprintf "%.2e" rate; "-"; "delivered msgs/s, full protocol";
        ])
    [ 5; 16 ];
  (* Sharded service tower: same partition executed on 1, 2 and 4
     domains. The digests must match exactly — sharding is a fixed
     logical partition, domains pure executor parallelism. Scaling is
     read against the cores present: a row with more domains than
     [nproc] is oversubscribed, not a scaling result, and the d2
     efficiency floor applies only where two cores exist. *)
  let nproc = Domain.recommended_domain_count () in
  M.set (M.gauge m "nproc") (float_of_int nproc);
  let spec =
    { W.default_spec with W.ops = 60_000; sessions = 1_000_000; window = 4_000; seed = 101 }
  in
  let params = { (S.default_params ~n:5 ~seed:202) with S.batch_max = 1_024 } in
  (* Wall noise is one-sided, and on a shared host the second core comes
     and goes: each domain count keeps its fastest run over 5 rounds,
     each round running every count once, so a slow spell hits all
     counts alike rather than one. *)
  let round () =
    List.map (fun domains -> (domains, S.run_sharded ~domains ~shards:4 ~spec params)) [ 1; 2; 4 ]
  in
  let faster (d, (a : S.report)) (_, (b : S.report)) =
    (d, if b.S.wall_seconds < a.S.wall_seconds then b else a)
  in
  let rec fastest rounds best =
    if rounds = 0 then best else fastest (rounds - 1) (List.map2 faster best (round ()))
  in
  let shard_runs = fastest 4 (round ()) in
  let d1_digest =
    match shard_runs with (_, r) :: _ -> S.report_digest r | [] -> 0
  in
  let wall domains = (List.assoc domains shard_runs).S.wall_seconds in
  List.iter
    (fun (domains, (r : S.report)) ->
      let same = S.report_digest r = d1_digest in
      if not same then
        failwith
          (Printf.sprintf
             "E16: sharded digest diverged at domains=%d (%d vs %d)" domains
             (S.report_digest r) d1_digest);
      M.set
        (M.gauge m (Printf.sprintf "sharded_ops_per_sec.d%d" domains))
        r.S.throughput;
      M.inc (M.counter m "rows");
      Table.add_row table
        [
          Printf.sprintf "service 4 shards, %d domain%s" domains
            (if domains = 1 then "" else "s");
          Printf.sprintf "%.2e" r.S.throughput;
          Printf.sprintf "%.2fx" (wall 1 /. r.S.wall_seconds);
          Printf.sprintf "digest=%d (matches d1: %b)%s" (S.report_digest r) same
            (if domains > nproc then Printf.sprintf ", oversubscribed (nproc=%d)" nproc
             else "");
        ])
    shard_runs;
  let efficiency = wall 1 /. wall 2 /. 2.0 in
  let gated = nproc >= 2 in
  M.set (M.gauge m "sharded_parallel_efficiency.d2") efficiency;
  M.inc (M.counter m "rows");
  Table.add_row table
    [
      "service parallel efficiency, 2 domains";
      "-";
      Printf.sprintf "%.2f" efficiency;
      Printf.sprintf "d1 wall / d2 wall / 2, nproc=%d (%s)" nproc
        (if not gated then "oversubscribed, no floor"
         else if efficiency < 0.5 then "GATE FAIL (< 0.5)"
         else "floor 0.5");
    ];
  Table.print table;
  if gated && efficiency < 0.5 then
    failwith
      (Printf.sprintf "E16: sharded parallel efficiency at 2 domains is %.2f (< 0.5, nproc=%d)"
         efficiency nproc)

(* ------------------------------------------------------------------ *)
(* E17 — span-profiler overhead: the E14 headline workload bare vs. a  *)
(* disarmed profiler (lane wired, enabled=false) vs. armed. Hard       *)
(* gates: disarmed <= 1%, armed <= 5%, identical report digests, and   *)
(* per-lane self-times summing to <= wall. The armed run's per-phase   *)
(* self-time gauges land in the envelope so bench-diff can gate        *)
(* per-phase regressions, plus span-op microbenches.                   *)
(* ------------------------------------------------------------------ *)

let e17 m =
  let module W = Ftss_service.Workload in
  let module S = Ftss_service.Service in
  let module P = Ftss_profile.Profile in
  let table =
    Table.create
      ~title:
        "E17 (profiler overhead) E14 headline workload: bare vs. disarmed vs. armed \
         span profiler (budget: disarmed <= 1%, armed <= 5%)"
      [ "row"; "ops/s"; "vs bare"; "spans"; "profiled ms"; "wall s" ]
  in
  let n = 5 in
  (* The E14 headline scenario verbatim: >= 1M ops through the tower
     with two corruption storms and an omission window. *)
  let wl =
    W.create ~n
      {
        W.default_spec with
        W.ops = 1_000_000;
        sessions = 1_000_000;
        window = 20_000;
        seed = 101;
      }
  in
  let params =
    {
      (S.default_params ~n ~seed:202) with
      S.batch_max = 1_024;
      faults =
        {
          S.storms = [ (8_000, 2); (14_000, 2) ];
          omission = [ (5_000, 5_600, 0.25) ];
          crashes = [];
        };
    }
  in
  let bare () = (S.run ~wl params, None) in
  let profiled ~enabled () =
    let prof = P.create ~enabled () in
    let r = S.run ~profile:(P.lane prof "svc.tower") ~wl params in
    (r, Some prof)
  in
  (* Interleaved trials, mean of the top-3 throughputs per config — the
     same one-sided-noise estimator as E15. Armed trials retire ~60 MB
     of span buffers, which the per-trial compaction clears. *)
  let configs =
    [
      ("bare (no ?profile)", "profiler_bare", bare);
      ("disarmed (enabled=false)", "profiler_off", profiled ~enabled:false);
      ("armed", "profiler_armed", profiled ~enabled:true);
    ]
  in
  let rounds = 5 in
  let trials = ab_trials ~rounds configs in
  let bare_label = "bare (no ?profile)" in
  let best label = top3_mean (trials label) in
  (* Single-trial wall-clock noise here runs whole percents — far above
     the 1% budget under test. Two end-to-end estimators are reported as
     diagnostics (the {e floor} comparison of each config's best trial
     against the bare best, and the median of per-round paired
     slowdowns); the budget gates themselves use the derived
     instrumentation cost computed below, which wall-clock noise cannot
     touch. *)
  let floor_tp label =
    Array.fold_left
      (fun acc ((r : S.report), _) -> max acc r.S.throughput)
      0. (trials label)
  in
  let floor_overhead label =
    let b = floor_tp bare_label in
    (b -. floor_tp label) /. b *. 100.
  in
  let paired_overhead label =
    let b = trials bare_label and c = trials label in
    let ds =
      Array.init rounds (fun r ->
          let (rb : S.report), _ = b.(r) and (rc : S.report), _ = c.(r) in
          (rb.S.throughput -. rc.S.throughput) /. rb.S.throughput *. 100.)
    in
    Array.sort compare ds;
    ds.(rounds / 2)
  in
  let bare_digest =
    match (trials bare_label).(0) with r, _ -> S.report_digest r
  in
  let overheads = Hashtbl.create 4 in
  let row (label, gauge, _) =
    let tp, (r, prof) = best label in
    let vs = if label = bare_label then 0. else floor_overhead label in
    (* Profiling must not perturb the simulation: every config commits
       the identical deterministic report. *)
    if S.report_digest r <> bare_digest then
      failwith
        (Printf.sprintf "E17: %s changed the report digest (%d vs %d)" label
           (S.report_digest r) bare_digest);
    M.set (M.gauge m (Printf.sprintf "committed_ops_per_sec.%s" gauge)) tp;
    (match prof with
    | Some _ ->
      Hashtbl.replace overheads gauge vs;
      M.set (M.gauge m (Printf.sprintf "overhead_pct.%s" gauge)) vs
    | None -> ());
    M.inc (M.counter m "rows");
    let profiled_ms, spans =
      match prof with
      | Some p when P.enabled p ->
        let self =
          List.fold_left (fun acc t -> acc + t.P.pt_self_ns) 0 (P.totals p)
        in
        ( Printf.sprintf "%.1f" (float_of_int self /. 1e6),
          string_of_int
            (List.fold_left (fun acc t -> acc + t.P.pt_calls) 0 (P.totals p)) )
      | _ -> ("-", "-")
    in
    Table.add_row table
      [
        label;
        Printf.sprintf "%.0f" tp;
        (match prof with None -> "-" | Some _ -> Printf.sprintf "%+.1f%%" (-.vs));
        spans;
        profiled_ms;
        Printf.sprintf "%.2f" r.S.wall_seconds;
      ];
    prof
  in
  let profs = List.map row configs in
  Table.print table;
  (* The armed run with the best throughput supplies the per-phase
     gauges ([profile_self_ms.<phase>] and friends) tracked by
     bench-diff, and must satisfy the self <= wall invariant per lane. *)
  let armed_prof =
    match List.filter_map Fun.id profs with
    | [ _; armed_prof ] -> armed_prof
    | _ -> assert false
  in
  (match P.check armed_prof with
  | [] -> ()
  | (lane, self, wall) :: _ ->
    failwith
      (Printf.sprintf "E17: lane %s self-time %d ns exceeds wall %d ns" lane
         self wall));
  List.iter (fun (name, v) -> M.set (M.gauge m name) v) (P.gauges armed_prof);
  (* The deterministic numbers underneath the wall-clock ratios: the
     cost of one chained lap and one enter/leave pair, armed and
     disarmed, over a tight loop. *)
  let iters = 5_000_000 in
  (* Best of three repetitions: tight-loop floors are stable to a few
     percent where single repetitions jitter well past bench-diff's
     regression threshold. *)
  let measure f =
    let once () =
      let t0 = Unix.gettimeofday () in
      f ();
      (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9
    in
    min (once ()) (min (once ()) (once ()))
  in
  let micro ~enabled suffix =
    let prof = P.create ~enabled () in
    let lane = P.lane prof "bench.micro" in
    let lap_ns =
      measure (fun () ->
          let tick = ref (P.now_ns ()) in
          for _ = 1 to iters do
            tick := P.lap lane P.Phase.sim_pop ~since:!tick
          done)
    in
    let pair_ns =
      measure (fun () ->
          for _ = 1 to iters do
            P.enter lane P.Phase.svc_slot;
            ignore (P.leave lane)
          done)
    in
    M.set (M.gauge m (Printf.sprintf "lap_ns_per_call.%s" suffix)) lap_ns;
    M.set (M.gauge m (Printf.sprintf "span_pair_ns_per_call.%s" suffix)) pair_ns;
    Format.printf "span ops (%s): lap %.1f ns, enter+leave %.1f ns@." suffix
      lap_ns pair_ns;
    (lap_ns, pair_ns)
  in
  let lap_armed, pair_armed = micro ~enabled:true "armed" in
  let lap_off, pair_off = micro ~enabled:false "disarmed" in
  (* The budget gates. End-to-end trial throughput on a shared machine
     swings whole percents between adjacent trials (the floor and
     paired-median figures above routinely disagree on sign), so a 1%
     budget cannot be resolved by comparing wall clocks. The gated
     figure is instead {e derived}: the measured per-operation span cost
     times the exact number of span operations the armed headline run
     performed, over the bare run's CPU time. It overestimates the true
     cost (in the simulator loop adjacent spans chain clock reads; the
     microbench pair pays both), so passing it implies the budget
     held. *)
  let lap_calls =
    List.fold_left
      (fun acc t ->
        if t.P.pt_phase = P.Phase.sim_pop || t.P.pt_phase = P.Phase.chunk_claim
        then acc + t.P.pt_calls
        else acc)
      0 (P.totals armed_prof)
  in
  let pair_calls =
    List.fold_left (fun acc t -> acc + t.P.pt_calls) 0 (P.totals armed_prof)
    - lap_calls
  in
  let bare_wall_ns =
    match best bare_label with _, ((r : S.report), _) -> r.S.wall_seconds *. 1e9
  in
  let derived ~lap_ns ~pair_ns =
    ((lap_ns *. float_of_int lap_calls) +. (pair_ns *. float_of_int pair_calls))
    /. bare_wall_ns *. 100.
  in
  let off_overhead = derived ~lap_ns:lap_off ~pair_ns:pair_off in
  let armed_overhead = derived ~lap_ns:lap_armed ~pair_ns:pair_armed in
  M.set (M.gauge m "overhead_pct.derived_off") off_overhead;
  M.set (M.gauge m "overhead_pct.derived_armed") armed_overhead;
  Format.printf
    "profiler overhead, derived from %d lap + %d pair ops: disarmed %.3f%%, \
     armed %.2f%% (gates: 1%% / 5%%)@."
    lap_calls pair_calls off_overhead armed_overhead;
  Format.printf
    "end-to-end (noisy): floor %+.2f%% / %+.2f%%, paired medians %+.2f%% / \
     %+.2f%%@."
    (Hashtbl.find overheads "profiler_off")
    (Hashtbl.find overheads "profiler_armed")
    (paired_overhead "disarmed (enabled=false)")
    (paired_overhead "armed");
  if off_overhead > 1.0 then
    failwith
      (Printf.sprintf "E17: disarmed profiler costs %.3f%% (> 1%% budget)"
         off_overhead);
  if armed_overhead > 5.0 then
    failwith
      (Printf.sprintf "E17: armed profiler costs %.2f%% (> 5%% budget)"
         armed_overhead)

let all =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6); ("E7", e7);
    ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12); ("E14", e14);
    ("E15", e15); ("E16", e16); ("E17", e17);
  ]
