open Ftss_util
module Protocol = Ftss_sync.Protocol
module Faults = Ftss_sync.Faults
module Trace = Ftss_sync.Trace
module Runner = Ftss_sync.Runner

let view trace p =
  let rec collect round acc =
    if round > Trace.length trace then List.rev acc
    else
      let record = Trace.record trace ~round in
      match record.Trace.states_before.(p) with
      | None -> List.rev acc
      | Some s ->
        let deliveries =
          List.map
            (fun { Protocol.src; payload } -> (src, payload))
            record.Trace.delivered.(p)
        in
        collect (round + 1) ((s, deliveries) :: acc)
  in
  collect 1 []

let corrupt_all ~n corrupt = List.map (fun p -> (0, p, corrupt p)) (Pid.all n)

(* The rate-obeying strawman of Theorem 1's dichotomy: a process that
   honours c := c + 1 unconditionally can never reconcile a corrupted gap. *)
let rate_obeying_protocol : (int, int) Protocol.t =
  {
    Protocol.name = "rate-obeying-counter";
    init = (fun _ -> 1);
    broadcast = (fun _ c -> c);
    step = (fun _ c _ -> c + 1);
  }

module Theorem1 = struct
  type report = {
    isolation : int;
    gap_at_suffix : int;
    suffix_matches_fresh_run : bool;
    rate_violation_round : int option;
    rate_obeying_never_agrees : bool;
  }

  let scenario_faults ~isolation =
    Faults.of_events ~n:2 [ Faults.Isolate { pid = 1; first = 1; last = isolation } ]

  let run ~isolation ~c_p ~c_q ~suffix =
    if c_p = c_q then invalid_arg "Theorem1.run: round variables must differ";
    if isolation < 1 || suffix < 2 then
      invalid_arg "Theorem1.run: need isolation >= 1 and suffix >= 2";
    let corrupt_at = corrupt_all ~n:2 (fun p _ -> if p = 0 then c_p else c_q) in
    let rounds = isolation + suffix in
    let faults = scenario_faults ~isolation in
    let h = Runner.run ~corrupt_at ~faults ~rounds Round_agreement.protocol in
    let start_of_suffix p =
      match Trace.state_before h ~round:(isolation + 1) p with
      | Some c -> c
      | None -> assert false (* nobody crashes in this scenario *)
    in
    let gap_at_suffix = abs (start_of_suffix 0 - start_of_suffix 1) in
    (* The fresh execution G: no failures, commencing in the suffix's
       initial state (itself a legal systemic-failure state). *)
    let g =
      Runner.run
        ~corrupt_at:(corrupt_all ~n:2 (fun p _ -> start_of_suffix p))
        ~faults:(Faults.none 2) ~rounds:suffix Round_agreement.protocol
    in
    let h_suffix = Trace.sub h ~first:(isolation + 1) ~last:rounds in
    let suffix_matches_fresh_run =
      List.for_all
        (fun p -> view h_suffix p = view g p)
        (Pid.all 2)
    in
    (* First suffix round in which some process's round variable does not
       advance by exactly one (the reconciliation jump). *)
    let rate_violation_round =
      let rec scan round =
        if round > Trace.length h_suffix then None
        else
          let record = Trace.record h_suffix ~round in
          let violated p =
            match (record.Trace.states_before.(p), record.Trace.states_after.(p)) with
            | Some b, Some a -> a <> b + 1
            | None, _ | _, None -> false
          in
          if List.exists violated (Pid.all 2) then Some round else scan (round + 1)
      in
      scan 1
    in
    let naive = Runner.run ~corrupt_at ~faults ~rounds rate_obeying_protocol in
    let rate_obeying_never_agrees =
      let rec scan round =
        if round > rounds then true
        else
          match
            ( Trace.state_before naive ~round 0,
              Trace.state_before naive ~round 1 )
          with
          | Some a, Some b -> a <> b && scan (round + 1)
          | None, _ | _, None -> false
      in
      scan (isolation + 1)
    in
    {
      isolation;
      gap_at_suffix;
      suffix_matches_fresh_run;
      rate_violation_round;
      rate_obeying_never_agrees;
    }

  let confirms_theorem r =
    r.gap_at_suffix > 0 && r.suffix_matches_fresh_run
    && Option.is_some r.rate_violation_round
    && r.rate_obeying_never_agrees
end

module Kp90 = struct
  type report = {
    baseline_ever_decides : bool;
    compiled_decides_repeatedly : bool;
  }

  (* A minimal canonical Π: flood the set of participant pids, decide the
     minimum after [f + 1] rounds. *)
  let toy_pi ~f : (Pidset.t, Pid.t) Canonical.t =
    {
      Canonical.name = "kp90-toy";
      final_round = f + 1;
      s_init = (fun p -> Pidset.singleton p);
      transition =
        (fun _ s deliveries _k ->
          List.fold_left
            (fun acc { Protocol.payload; _ } -> Pidset.union acc payload)
            s deliveries);
      decide = (fun s -> Pidset.min_elt_opt s);
    }

  let run ~n ~f ~rounds =
    let pi = toy_pi ~f in
    (* The terminating baseline, with every process systemically planted
       in the absorbing halt state (and its decision state emptied). *)
    let ft = Canonical.to_protocol pi in
    let corrupt_halted _ (st : Pidset.t Canonical.ft_state) =
      { st with Canonical.halted = true; s = Pidset.empty }
    in
    let baseline_trace =
      Runner.run ~corrupt_at:(corrupt_all ~n corrupt_halted) ~faults:(Faults.none n) ~rounds
        ft
    in
    let decided_at_round r =
      List.exists
        (fun p ->
          match Trace.state_after baseline_trace ~round:r p with
          | Some st -> Canonical.ft_decision pi st <> None
          | None -> false)
        (Pid.all n)
    in
    let baseline_ever_decides =
      List.exists (fun i -> decided_at_round (i + 1)) (List.init rounds Fun.id)
    in
    (* The compiled (infinitely repeating) version from a comparable
       corruption: emptied protocol state and a scrambled round variable.
       There is no halt state to be trapped in. *)
    let compiled = Compiler.compile ~n pi in
    let corrupt_compiled p (st : (Pidset.t, Pid.t) Compiler.state) =
      { st with Compiler.s = Pidset.empty; c = 17 + p }
    in
    let compiled_trace =
      Runner.run ~corrupt_at:(corrupt_all ~n corrupt_compiled) ~faults:(Faults.none n) ~rounds
        compiled
    in
    let completions =
      List.filter
        (fun r ->
          List.exists
            (fun p ->
              match
                ( Trace.state_before compiled_trace ~round:r p,
                  Trace.state_after compiled_trace ~round:r p )
              with
              | Some b, Some a ->
                a.Compiler.completed = b.Compiler.completed + 1
                && a.Compiler.last_decision <> None
              | None, _ | _, None -> false)
            (Pid.all n))
        (List.init rounds (fun i -> i + 1))
    in
    {
      baseline_ever_decides;
      compiled_decides_repeatedly = List.length completions >= 2;
    }

  let confirms_claim r = (not r.baseline_ever_decides) && r.compiled_decides_repeatedly
end

module Theorem2 = struct
  type report = {
    views_identical : bool;
    self_checking_halts_correct_process : bool;
    never_halting_violates_uniformity : bool;
  }

  (* The "self-checking and halting before doing any harm" strawman
     (Assumption 2's technique): run round agreement, but halt after
     [threshold] consecutive rounds of silence from every other process. *)
  type checking_state = { c : int; silent : int; halted : bool }

  let self_checking ~threshold : (checking_state, int) Protocol.t =
    {
      Protocol.name = "self-checking-round-agreement";
      init = (fun _ -> { c = 1; silent = 0; halted = false });
      broadcast = (fun _ st -> st.c);
      step =
        (fun p st deliveries ->
          if st.halted then st
          else
            let heard_other =
              List.exists (fun { Protocol.src; _ } -> not (Pid.equal src p)) deliveries
            in
            let silent = if heard_other then 0 else st.silent + 1 in
            if silent >= threshold then { st with silent; halted = true }
            else
              let max_seen =
                List.fold_left
                  (fun acc { Protocol.payload; _ } -> max acc payload)
                  min_int deliveries
              in
              { c = max_seen + 1; silent; halted = false });
    }

  let run ~silence_threshold ~c_p ~c_q ~rounds =
    if c_p = c_q then invalid_arg "Theorem2.run: round variables must differ";
    if silence_threshold < 1 || rounds <= silence_threshold then
      invalid_arg "Theorem2.run: need rounds > silence_threshold >= 1";
    let corrupt_checking p (st : checking_state) =
      { st with c = (if p = 0 then c_p else c_q) }
    in
    let never_communicate culprit =
      Faults.of_events ~n:2 [ Faults.Isolate { pid = culprit; first = 1; last = rounds } ]
    in
    let protocol = self_checking ~threshold:silence_threshold in
    (* Scenario 1: process 1 is the faulty one. Scenario 2: process 0 is.
       The communication pattern — total silence — is identical. *)
    let run_with culprit =
      Runner.run
        ~corrupt_at:(corrupt_all ~n:2 corrupt_checking)
        ~faults:(never_communicate culprit) ~rounds protocol
    in
    let h1 = run_with 1 in
    let h2 = run_with 0 in
    let views_identical =
      List.for_all (fun p -> view h1 p = view h2 p) (Pid.all 2)
    in
    let halted trace p =
      match Trace.state_after trace ~round:rounds p with
      | Some st -> st.halted
      | None -> true
    in
    (* In h1, process 0 is correct; the self-checking strawman halts it
       anyway (it cannot distinguish h1 from h2). *)
    let self_checking_halts_correct_process = halted h1 0 && halted h2 1 in
    (* The never-halting strawman (plain round agreement) leaves the faulty
       process running and disagreeing: uniformity (Assumption 2) fails. *)
    let corrupt_plain p _ = if p = 0 then c_p else c_q in
    let plain =
      Runner.run
        ~corrupt_at:(corrupt_all ~n:2 corrupt_plain)
        ~faults:(never_communicate 1) ~rounds Round_agreement.protocol
    in
    let uniformity_violated =
      let rec scan round =
        if round > rounds then false
        else
          match
            (Trace.state_before plain ~round 0, Trace.state_before plain ~round 1)
          with
          | Some c0, Some c1 -> c0 <> c1 || scan (round + 1)
          | None, _ | _, None -> scan (round + 1)
      in
      (* every round disagrees, and the faulty process never halts (plain
         round agreement has no halting action at all) *)
      scan 1
    in
    {
      views_identical;
      self_checking_halts_correct_process;
      never_halting_violates_uniformity = uniformity_violated;
    }

  let confirms_theorem r =
    r.views_identical && r.self_checking_halts_correct_process
    && r.never_halting_violates_uniformity
end
