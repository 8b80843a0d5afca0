open Ftss_util
open Ftss_sync
open Ftss_core
open Ftss_protocols
module S = Schedule_enum

type verdict = { ok : bool; detail : unit -> string }

type run = {
  fingerprint : int;
  states : int;
  signature : int array Lazy.t;
  verdict : verdict Lazy.t;
}

(* Fingerprints are already well-mixed hashes, so a table indexes them
   by their own low bits. *)
module Fingerprint_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash fp = fp
end)

(* The adversary interface the theorem runners actually consume: a
   compiled fault schedule plus one per-pid view of the corruption.
   [Schedule_enum.t] cases compile into this via {!adversary_of_case};
   the fuzzer's genomes compile into it directly, so both front-ends
   share one evaluator, and one realization of a corruption, per
   theorem. *)
type adversary = {
  adv_n : int;
  adv_rounds : int;
  adv_f : int;
  adv_faults : Faults.t;
  adv_corrupt : Pid.t -> int option;
}

type t = {
  name : string;
  inject : string;
  restrict : S.params -> S.params;
  run_adv : ?obs:Ftss_obs.Obs.t -> adversary -> run;
  run : ?obs:Ftss_obs.Obs.t -> S.t -> run;
  run_batch : S.t array -> int array -> (int -> run -> unit) -> int;
  fingerprint_hex : int -> string;
}

(* A content digest; equal digests imply equal recorded executions, hence
   equal verdicts (every predicate below is a pure function of the
   execution). Trace-based properties read the 62-bit content hash the
   runner streams as the trace is built ({!Trace.hash}) — no [Marshal]
   serialisation, no [Digest] pass, no per-run allocation. Composite
   results (theorem 5) pack the two 30-bit streams of the same
   structural hash into one int. The hex form is rendered only where a
   fingerprint is shown or names a file. *)
let trace_fingerprint_hex fp = Printf.sprintf "%016x" fp

let fingerprint v =
  (Hashtbl.seeded_hash_param max_int 256 0x1796 v lsl 30)
  lor Hashtbl.seeded_hash_param max_int 256 0x9e37 v

let fingerprint_hex fp = Printf.sprintf "%08x-%08x" (fp lsr 30) (fp land 0x3FFF_FFFF)

let no_restrict (params : S.params) = params

let adversary_of_case (case : S.t) =
  let { S.n; rounds; f; _ } = case.S.params in
  let adv_corrupt =
    match case.S.corruption with
    | S.Clean -> fun _ -> None
    | c -> fun p -> Some (S.corrupt_int c p 0)
  in
  { adv_n = n; adv_rounds = rounds; adv_f = f; adv_faults = S.to_faults case; adv_corrupt }

(* The corruption schedule of an adversary: one initial-state entry per
   pid with a value, in pid order, rewriting the state by [rewrite v]. *)
let initial_entries adv rewrite =
  List.filter_map
    (fun p -> Option.map (fun v -> (0, p, rewrite v)) (adv.adv_corrupt p))
    (Pid.all adv.adv_n)

let make ~name ~inject ~restrict ~fingerprint_hex ?run_batch run_adv =
  let run ?obs case = run_adv ?obs (adversary_of_case case) in
  let run_batch =
    match run_batch with
    | Some b -> b
    | None ->
      (* No rounds to share: each case runs whole. *)
      fun cases order k ->
        Array.fold_left
          (fun stepped i ->
            let r = run cases.(i) in
            k i r;
            stepped + r.states)
          0 order
  in
  { name; inject; restrict; run_adv; run; run_batch; fingerprint_hex }

(* A synchronous theorem: per adversary, the protocol, the rewrite of a
   corrupted pid's round variable to its value, and the judgement of a
   trace. [instance] may read only the adversary's n, f, rounds and
   corruption class — what {!Schedule_enum.shared_prefix} compares at
   round 0 — because a batch reuses one instance across the cases that
   share a prefix. *)
type ('s, 'm) instance = {
  protocol : ('s, 'm) Protocol.t;
  set_round : int -> 's -> 's;
  judge : ?obs:Ftss_obs.Obs.t -> adversary -> ('s, 'm) Trace.t -> run;
}

let sync_theorem ~name ~inject (instance : adversary -> ('s, 'm) instance) =
  let run_adv ?obs adv =
    let inst = instance adv in
    inst.judge ?obs adv
      (Runner.run ?obs
         ~corrupt_at:(initial_entries adv inst.set_round)
         ~faults:adv.adv_faults ~rounds:adv.adv_rounds inst.protocol)
  in
  (* The cursor walk: [path.(r)] is the runner state after round [r] of
     the previous case, valid through the depth the next case shares
     with it, so each case steps only the rounds past that depth. *)
  let run_batch cases order k =
    let stepped = ref 0 in
    let current = ref None in
    Array.iter
      (fun i ->
        let case = cases.(i) in
        let adv = adversary_of_case case in
        let rounds = adv.adv_rounds and faults = adv.adv_faults in
        let shared =
          match !current with
          | Some (prev, _, _) -> S.shared_prefix prev case
          | None -> -1
        in
        let inst, path =
          match !current with
          | Some (_, inst, path) when shared >= 0 -> (inst, path)
          | _ ->
            let inst = instance adv in
            let start =
              Runner.start
                ~corrupt_at:(initial_entries adv inst.set_round)
                ~n:adv.adv_n inst.protocol
            in
            (inst, Array.make (rounds + 1) start)
        in
        let from = max shared 0 in
        if from < rounds then begin
          for r = from + 1 to rounds do
            path.(r) <- Runner.step ~faults path.(r - 1)
          done;
          stepped := !stepped + (adv.adv_n * (rounds - from))
        end;
        current := Some (case, inst, path);
        k i (inst.judge adv (Runner.finish ~faults path.(rounds))))
      order;
    !stepped
  in
  make ~name ~inject ~restrict:no_restrict ~fingerprint_hex:trace_fingerprint_hex ~run_batch
    run_adv

(* --- Theorem 3: Figure 1 round agreement --- *)

let theorem3 ?(inject = `None) () =
  let protocol, inject_name =
    match inject with
    | `None -> (Round_agreement.protocol, "none")
    | `Frozen_exchange ->
      (* The exchange is severed: a process ignores every delivery and
         counts on its own. Distinct corrupted round variables then never
         reconcile — the mechanism Theorem 3 rests on, removed. *)
      ( {
          Round_agreement.protocol with
          Protocol.name = "round-agreement!frozen-exchange";
          step = (fun _ c _ -> c + 1);
        },
        "frozen-exchange" )
  in
  let judge ?obs adv trace =
    (match obs with
    | Some o ->
      Ftss_obs.Obs.emit_windows o (Solve.measured_per_window Round_agreement.spec trace)
    | None -> ());
    {
      fingerprint = Trace.hash trace;
      states = adv.adv_n * adv.adv_rounds;
      signature = lazy (Trace.round_signature ~project:(fun _ c -> c) trace);
      verdict =
        lazy
          (let stab = Round_agreement.stabilization_time in
           let { Solve.solves = ok; measured; windows } =
             Solve.assess Round_agreement.spec ~stabilization:stab trace
           in
           let omissions = List.length trace.Trace.omissions in
           let detail () =
             Format.asprintf
               "ftss_solves %s stabilization=%d: %b (measured %d over %d stable windows, %d omissions)"
               Round_agreement.spec.Spec.name stab ok measured windows omissions
           in
           { ok; detail });
    }
  in
  sync_theorem ~name:"theorem3" ~inject:inject_name (fun _ ->
      { protocol; set_round = (fun v _ -> v); judge })

(* --- Theorem 4: the Figure 3 compiler --- *)

let theorem4 ?(suspect_filter = true) () =
  let propose p = 50 + p in
  (* With the filter on, Π is the intended compiler input under general
     omission (suspect-filtered, f+2 rounds). The ablated variant feeds
     the compiler *plain* flooding instead, as E8a does: omission
     consensus's internal distrust would mask the removed filter. The
     trace's type depends on Π's state type, so everything derived from
     it — fingerprint, signature and verdict — is computed inside this
     polymorphic helper; only monomorphic values escape. *)
  let instance make_pi adv =
    let n = adv.adv_n in
    let pi = make_pi ~n ~f:adv.adv_f in
    let final_round = pi.Canonical.final_round in
    let valid d = d >= 50 && d < 50 + n in
    (* Built once per instance, so the cases sharing it share them. *)
    let spec = Repeated.round_and_sigma ~final_round ~valid () in
    let bound = Compiler.stabilization_bound pi in
    let judge ?obs adv trace =
      (match obs with
      | Some o -> Ftss_obs.Obs.emit_windows o (Solve.measured_per_window spec trace)
      | None -> ());
      let verdict =
        lazy
          (let ok = Solve.ftss_solves spec ~stabilization:bound trace in
           (* Counted here, with the verdict, rather than inside [detail]
              where alone it is read: a [detail] closure over [trace]
              would keep every judged trace alive as long as its
              verdict. Tried once, that retention slowed the one-domain
              n=4 r=6 f=2 theorem4 sweep on a shared 2-vCPU VM from
              2.7–3.6 s to 6.6–6.9 s. *)
           let completed, agreeing =
             Repeated.count_agreeing_iterations trace
               ~faulty:(Faults.faulty adv.adv_faults) ~valid
           in
           let detail () =
             Format.asprintf
               "ftss_solves Σ⁺ stabilization=%d: %b (final_round %d, iterations %d, agreeing %d)"
               bound ok final_round completed agreeing
           in
           { ok; detail })
      in
      let signature =
        (* The observable registers of Π⁺: where the round variable sits
           in its protocol phase, whom the process distrusts, and the two
           output registers. The unbounded c is normalized first so two
           rounds in the same phase of different iterations coincide. *)
        lazy
          (Trace.round_signature
             ~project:(fun _ (st : _ Compiler.state) ->
               Hashtbl.hash
                 ( Compiler.normalize ~final_round st.Compiler.c,
                   st.Compiler.suspects,
                   st.Compiler.last_decision,
                   st.Compiler.completed ))
             trace)
      in
      {
        fingerprint = Trace.hash trace;
        states = n * adv.adv_rounds;
        signature;
        verdict;
      }
    in
    {
      protocol = Compiler.compile ~suspect_filter ~n pi;
      set_round = (fun v (st : _ Compiler.state) -> { st with Compiler.c = v });
      judge;
    }
  in
  if suspect_filter then
    sync_theorem ~name:"theorem4" ~inject:"none"
      (instance (fun ~n ~f -> Omission_consensus.make ~n ~f ~propose))
  else
    sync_theorem ~name:"theorem4" ~inject:"no-suspect-filter"
      (instance (fun ~n:_ ~f -> Flooding_consensus.make ~f ~propose))

(* --- Theorem 5: the Figure 4 transform, on the asynchronous simulator --- *)

let theorem5 () =
  let gst = 300 in
  let run_adv ?obs adv =
    let open Ftss_async in
    let n = adv.adv_n in
    let faults = adv.adv_faults in
    for round = 1 to adv.adv_rounds do
      if not (Faults.quiet_round faults ~round) then
        invalid_arg "Property.theorem5: schedule has non-crash behaviours"
    done;
    (* A crash at synchronous round r maps to simulated time 100·r, so
       every enumerated crash lands before GST — the adversarial window. *)
    let crashes =
      List.filter_map
        (fun p -> Option.map (fun r -> (p, 100 * r)) (Faults.crash_round faults p))
        (Pid.all n)
    in
    let config =
      {
        (Sim.default_config ~n ~seed:1) with
        Sim.gst;
        horizon = 2500;
        tick_interval = 10;
        delay_before_gst = (1, 80);
        delay_after_gst = (1, 5);
        crashes;
      }
    in
    let crashed p = List.assoc_opt p crashes in
    let trusted =
      match List.find_opt (fun p -> crashed p = None) (Pid.all n) with
      | Some p -> p
      | None -> assert false (* f < n leaves a correct process *)
    in
    let oracle = Ewfd.make (Rng.create 2) ~n ~crashed ~gst ~trusted ~noise:0.3 in
    let corrupt_at =
      (* Each pid with a value v has its detector state drawn through the
         detector's own corruption shape, counters below v + 1, all from
         one generator. *)
      let rng = Rng.create 11 in
      initial_entries adv (fun v -> Esfd.Layer.corrupt rng ~num_bound:(v + 1))
    in
    let result =
      Sim.run ?obs ~corrupt_at config (Esfd.process ?obs ~n ~source:(Esfd.Oracle oracle) ())
    in
    let report = Esfd.analyze ~trusted result ~config in
    (match (obs, report.Esfd.convergence_time) with
    | Some o, Some t ->
      Ftss_obs.Obs.emit_windows o [ ((0, result.Sim.end_time), t) ]
    | _ -> ());
    {
      fingerprint =
        fingerprint (report, result.Sim.delivered, result.Sim.end_time, result.Sim.log);
      states = n * (config.Sim.horizon / config.Sim.tick_interval);
      signature =
        (* No per-round trace exists here; the coverage signal is the
           coarse convergence profile of the run. *)
        lazy
          [|
            Hashtbl.seeded_hash_param max_int 256 0x1796
              (report.Esfd.completeness_from, report.Esfd.accuracy_from);
            Hashtbl.seeded_hash_param max_int 256 0x9e37
              (report.Esfd.convergence_time, result.Sim.delivered);
          |];
      verdict =
        lazy
          (let show = function Some t -> string_of_int t | None -> "none" in
           let ok = report.Esfd.convergence_time <> None in
           let convergence = report.Esfd.convergence_time
           and completeness = report.Esfd.completeness_from
           and accuracy = report.Esfd.accuracy_from
           and delivered = result.Sim.delivered in
           let detail () =
             Format.asprintf
               "◇S convergence: %s (completeness %s, accuracy %s, %d delivered)"
               (show convergence) (show completeness) (show accuracy) delivered
           in
           { ok; detail });
    }
  in
  make ~name:"theorem5" ~inject:"none" ~fingerprint_hex
    ~restrict:(fun params -> { params with S.intervals = false; drops = false })
    run_adv

let known =
  [
    ("theorem3", "none");
    ("theorem3", "frozen-exchange");
    ("theorem4", "none");
    ("theorem4", "no-suspect-filter");
    ("theorem5", "none");
  ]

let find ~name ~inject =
  match (name, inject) with
  | "theorem3", "none" -> Ok (theorem3 ())
  | "theorem3", "frozen-exchange" -> Ok (theorem3 ~inject:`Frozen_exchange ())
  | "theorem4", "none" -> Ok (theorem4 ())
  | "theorem4", "no-suspect-filter" -> Ok (theorem4 ~suspect_filter:false ())
  | "theorem5", "none" -> Ok (theorem5 ())
  | _ ->
    Error
      (Printf.sprintf "unknown property/injection %s/%s (known: %s)" name inject
         (String.concat ", "
            (List.map (fun (p, i) -> Printf.sprintf "%s/%s" p i) known)))
