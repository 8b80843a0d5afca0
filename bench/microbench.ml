(* M1 — bechamel microbenchmarks: the per-round / per-event costs of each
   building block, so the simulator's capacity is documented. *)

open Bechamel
open Toolkit
open Ftss_util
open Ftss_sync
open Ftss_core
open Ftss_protocols

let round_agreement_round ~n =
  let faults = Faults.none n in
  Test.make
    ~name:(Printf.sprintf "round-agreement round (n=%d)" n)
    (Staged.stage (fun () ->
         ignore (Runner.run ~faults ~rounds:1 Round_agreement.protocol)))

let compiled_round ~n =
  let propose p = 50 + p in
  let pi = Omission_consensus.make ~n ~f:1 ~propose in
  let compiled = Compiler.compile ~n pi in
  let faults = Faults.none n in
  Test.make
    ~name:(Printf.sprintf "compiled consensus round (n=%d)" n)
    (Staged.stage (fun () -> ignore (Runner.run ~faults ~rounds:1 compiled)))

let coterie_analysis ~n ~rounds =
  let faults = Faults.none n in
  let trace = Runner.run ~faults ~rounds Round_agreement.protocol in
  Test.make
    ~name:(Printf.sprintf "coterie analysis (n=%d, %d rounds)" n rounds)
    (Staged.stage (fun () -> ignore (Ftss_history.Causality.analyze trace)))

let esfd_tick ~n =
  let open Ftss_async in
  let t = Esfd.create ~n in
  Test.make
    ~name:(Printf.sprintf "esfd tick+merge (n=%d)" n)
    (Staged.stage (fun () ->
         let t', msg = Esfd.tick t ~self:0 ~detect:(fun s -> s = n - 1) in
         ignore (Esfd.receive t' msg)))

let async_consensus_run ~n =
  let open Ftss_async in
  let propose p i = 100 + (((p * 13) + (i * 7)) mod 50) in
  let config =
    {
      (Sim.default_config ~n ~seed:3) with
      Sim.gst = 50;
      horizon = 500;
      tick_interval = 10;
      delay_before_gst = (1, 20);
      delay_after_gst = (1, 4);
    }
  in
  let oracle =
    Ewfd.make (Rng.create 5) ~n ~crashed:(fun _ -> None) ~gst:config.Sim.gst ~trusted:0
      ~noise:0.1
  in
  Test.make
    ~name:(Printf.sprintf "async consensus 500 time units (n=%d)" n)
    (Staged.stage (fun () ->
         ignore
           (Sim.run config
              (Consensus.process ~n ~style:Consensus.self_stabilizing ~propose ~oracle ()))))

(* Repeated consensus: k instances, one simulation each, all sharing one
   event-queue arena. *)
let repeated_propose p i = 100 + (((p * 13) + (i * 7)) mod 50)

let repeated_pooled_queue ~n ~instances =
  Test.make
    ~name:(Printf.sprintf "repeated pooled-queue x%d (n=%d)" instances n)
    (Staged.stage (fun () ->
         ignore
           (Repeated.run_async ~n ~seed:3
              ~style:Ftss_async.Consensus.self_stabilizing
              ~propose:repeated_propose ~instances ~horizon_per_instance:150 ())))

(* The queue hot path in isolation: one pop-one/push-one cycle at a
   standing population of 4096, calendar vs. the seed binary heap. *)
let queue_cycle_calendar =
  let open Ftss_async in
  let rng = Rng.create 11 in
  let q = Event_queue.create ~initial_capacity:4096 () in
  for _ = 1 to 4096 do
    Event_queue.push_tagged q ~time:(1 + Rng.int rng 120) ~tag:0 ()
  done;
  Test.make ~name:"event-queue cycle calendar (pop 4096)"
    (Staged.stage (fun () ->
         ignore (Event_queue.pop_step q);
         Event_queue.push_tagged q
           ~time:(Event_queue.out_time q + 1 + Rng.int rng 120)
           ~tag:0 ()))

let queue_cycle_heap =
  let open Ftss_async in
  let rng = Rng.create 11 in
  let q = Event_queue.Reference.create () in
  for _ = 1 to 4096 do
    Event_queue.Reference.push q ~time:(1 + Rng.int rng 120) ()
  done;
  Test.make ~name:"event-queue cycle heap (pop 4096)"
    (Staged.stage (fun () ->
         match Event_queue.Reference.pop q with
         | Some (t, ()) ->
           Event_queue.Reference.push q ~time:(t + 1 + Rng.int rng 120) ()
         | None -> assert false))

(* The Pidset hot path at both representations: a mixed
   union/inter/diff/cardinal/mem workload over fixed operands — one-word
   (n <= 62: immediate ints, single-instruction ops) and multi-word
   (n = 200). The one-word row gates, via bench-diff, that the width
   polymorphism left the historic fast path untouched. *)
let pidset_ops ~n =
  let a = Pidset.of_pred n (fun p -> p mod 3 = 0) in
  let b = Pidset.of_pred n (fun p -> p mod 2 = 0) in
  Test.make
    ~name:(Printf.sprintf "pidset mixed ops (n=%d)" n)
    (Staged.stage (fun () ->
         let u = Pidset.union a b in
         let i = Pidset.inter u a in
         let d = Pidset.diff u b in
         ignore (Pidset.cardinal i + Pidset.cardinal d);
         ignore (Pidset.mem (n - 1) u)))

(* [Explore.run ~domains:d] spawns d-1 worker domains inside every call,
   so a multi-domain row measures spawn+join cost plus the workload — on a
   ~3 ms workload the spawns dominate and the row must not be read as the
   explorer's parallel speedup (E5 measures that, amortized over large
   case sets). The row is named "spawn+run" accordingly, and the
   [domain_spawn_join] baseline prices the spawns alone so the two can be
   subtracted. *)
let explorer_throughput ~domains =
  let open Ftss_check in
  let prop =
    match Property.find ~name:"theorem3" ~inject:"none" with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  let params =
    { Schedule_enum.n = 3; rounds = 3; f = 1; intervals = true; drops = true }
  in
  let cases = Schedule_enum.enumerate params in
  Test.make
    ~name:
      (if domains = 1 then
         Printf.sprintf "explorer theorem3 %d cases (1 domain)" (Array.length cases)
       else
         Printf.sprintf "explorer theorem3 %d cases (spawn+run, %d domains)"
           (Array.length cases) domains)
    (Staged.stage (fun () -> ignore (Explore.run ~domains prop cases)))

let domain_spawn_join ~spawns =
  Test.make
    ~name:(Printf.sprintf "domain spawn+join x%d" spawns)
    (Staged.stage (fun () ->
         let ds = List.init spawns (fun _ -> Domain.spawn (fun () -> ())) in
         List.iter Domain.join ds))

let tests =
  Test.make_grouped ~name:"ftss" ~fmt:"%s %s"
    [
      round_agreement_round ~n:4;
      round_agreement_round ~n:16;
      compiled_round ~n:4;
      compiled_round ~n:16;
      coterie_analysis ~n:8 ~rounds:50;
      esfd_tick ~n:5;
      esfd_tick ~n:9;
      async_consensus_run ~n:5;
      repeated_pooled_queue ~n:4 ~instances:8;
      queue_cycle_calendar;
      queue_cycle_heap;
      pidset_ops ~n:61;
      pidset_ops ~n:200;
      explorer_throughput ~domains:1;
      explorer_throughput ~domains:(max 2 (Ftss_check.Explore.available ()));
      domain_spawn_join ~spawns:(max 2 (Ftss_check.Explore.available ()) - 1);
    ]

let run m =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let table =
    Table.create ~title:"M1 Microbenchmarks (monotonic clock, OLS estimate per call)"
      [ "benchmark"; "ns/call" ]
  in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
        in
        (name, estimate) :: acc)
      clock []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, est) ->
      Ftss_obs.Metrics.set
        (Ftss_obs.Metrics.gauge m (Printf.sprintf "ns_per_call.%s" name))
        est;
      Table.add_row table [ name; Printf.sprintf "%.0f" est ])
    rows;
  Table.print table
