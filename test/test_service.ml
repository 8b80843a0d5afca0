(* Tests for the service tower: the KV state machine and its digests, the
   workload generator, the multivalued consensus engine, and end-to-end
   Service runs — fault-free, under the full crash/omission/storm mix
   (the convergence property test), and a golden determinism pin. *)

open Ftss_util
open Ftss_service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Kv --- *)

let test_kv_semantics () =
  let t = Kv.create () in
  check_int "absent reads 0" 0 (Kv.get t 7);
  check "absent" false (Kv.mem t 7);
  Kv.apply t { Kv.id = 0; kind = Kv.Put; key = 7; v1 = 42; v2 = 0 };
  check_int "put" 42 (Kv.get t 7);
  Kv.apply t { Kv.id = 1; kind = Kv.Cas; key = 7; v1 = 41; v2 = 99 };
  check_int "cas miss" 42 (Kv.get t 7);
  Kv.apply t { Kv.id = 2; kind = Kv.Cas; key = 7; v1 = 42; v2 = 99 };
  check_int "cas hit" 99 (Kv.get t 7);
  Kv.apply t { Kv.id = 3; kind = Kv.Delete; key = 7; v1 = 0; v2 = 0 };
  check "deleted" false (Kv.mem t 7);
  (* put 0 is a distinct state from absent *)
  let a = Kv.create () and b = Kv.create () in
  Kv.apply a { Kv.id = 0; kind = Kv.Put; key = 1; v1 = 0; v2 = 0 };
  check "put0 <> absent" true (Kv.digest a <> Kv.digest b)

(* --- the Hashtbl reference model: the differential oracle for [Kv] --- *)

(* The state digest by definition: the sum of one mix per live entry,
   folded over the model's contents. *)
let model_digest m =
  Hashtbl.fold (fun k v acc -> (acc + Kv.mix (Kv.mix 0xD1_6E57 k) v) land max_int) m 0

let model_get m key = Option.value ~default:0 (Hashtbl.find_opt m key)

let model_apply m (o : Kv.op) =
  match o.Kv.kind with
  | Kv.Get -> ()
  | Kv.Put -> Hashtbl.replace m o.Kv.key o.Kv.v1
  | Kv.Cas -> if model_get m o.Kv.key = o.Kv.v1 then Hashtbl.replace m o.Kv.key o.Kv.v2
  | Kv.Delete -> Hashtbl.remove m o.Kv.key

(* [Kv.corrupt]'s table draws, in order: the hit count; per hit a coin,
   then the value before the key for a replacement, or the key of a
   removal. Its trailing digest-field draws touch no entry. *)
let model_corrupt rng ~keys m =
  let hits = 1 + Rng.int rng 8 in
  for _ = 1 to hits do
    if Rng.bool rng then begin
      let value = Rng.int rng 1_000_000 in
      Hashtbl.replace m (Rng.int rng (max 1 keys)) value
    end
    else Hashtbl.remove m (Rng.int rng (max 1 keys))
  done

(* Equal contents: the same size and every model binding present. *)
let same_contents t m =
  Kv.cardinal t = Hashtbl.length m
  && Hashtbl.fold (fun k v ok -> ok && Kv.mem t k && Kv.get t k = v) m true

let test_kv_incremental_digest_matches_recompute () =
  let t = Kv.create () and m = Hashtbl.create 64 in
  let rng = Rng.create 11 in
  for id = 0 to 4999 do
    let kind =
      match Rng.int rng 4 with 0 -> Kv.Put | 1 -> Kv.Get | 2 -> Kv.Cas | _ -> Kv.Delete
    in
    let o = { Kv.id; kind; key = Rng.int rng 64; v1 = Rng.int rng 16; v2 = Rng.int rng 100 } in
    Kv.apply t o;
    model_apply m o
  done;
  check_int "incremental = recompute" (Kv.recompute_digest t) (Kv.digest t);
  Kv.corrupt (Rng.create 12) ~keys:64 t;
  model_corrupt (Rng.create 12) ~keys:64 m;
  (* after raw scrambling, recompute is the ground truth the audit uses *)
  check "corrupt scrambles as the model does" true (same_contents t m);
  check_int "recompute reads the table, not the field" (model_digest m)
    (Kv.recompute_digest t)

(* Keys chosen to collide and wrap around the table: a tiny range,
   multiples of the capacities the table passes through, negative keys,
   keys at and beyond 2^40, the extreme ints, and a wide range whose
   mostly fresh keys drive the table through two or three grow steps. *)
let kv_key =
  QCheck.Gen.(
    frequency
      [
        (2, int_range 0 7);
        (2, map (fun k -> k * 8192) (int_range (-32) 32));
        (1, int_range (-3000) (-1));
        (1, map (fun k -> (1 lsl 40) + k) (int_range 0 3000));
        (1, map (fun k -> k lsl 40) (int_range (-8) 8));
        (1, oneofl [ min_int; max_int; -1 ]);
        (6, int_bound (1 lsl 20));
      ])

let kv_op =
  QCheck.Gen.(
    map
      (fun (kind, key, v1, v2) -> { Kv.id = 0; kind; key; v1; v2 })
      (quad
         (frequency
            [ (1, return Kv.Get); (5, return Kv.Put); (2, return Kv.Cas); (2, return Kv.Delete) ])
         kv_key (int_range 0 3) (int_range 0 1_000)))

(* After every op, the table answers like the model for the op's key,
   and its size, incremental digest and scanned digest all equal the
   model's; at the end the contents are equal, and a seeded corruption
   scrambles both the same way. *)
let prop_kv_matches_model =
  QCheck.Test.make ~name:"Kv agrees with a Hashtbl model over colliding keys and grow steps"
    ~count:12
    QCheck.(
      pair (make ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
              Gen.(list_size (int_range 1_000 4_000) kv_op))
        small_nat)
    (fun (ops, seed) ->
      let t = Kv.create () and m = Hashtbl.create 64 in
      List.for_all
        (fun (o : Kv.op) ->
          Kv.apply t o;
          model_apply m o;
          let d = model_digest m in
          Kv.get t o.Kv.key = model_get m o.Kv.key
          && Kv.mem t o.Kv.key = Hashtbl.mem m o.Kv.key
          && Kv.cardinal t = Hashtbl.length m
          && Kv.digest t = d
          && Kv.recompute_digest t = d)
        ops
      && same_contents t m
      && begin
        Kv.corrupt (Rng.create seed) ~keys:8 t;
        model_corrupt (Rng.create seed) ~keys:8 m;
        same_contents t m && Kv.recompute_digest t = model_digest m
      end)

let test_kv_order_independence () =
  (* state digest is order-independent; batch digest is order-dependent *)
  let a = Kv.create () and b = Kv.create () in
  let o1 = { Kv.id = 0; kind = Kv.Put; key = 1; v1 = 10; v2 = 0 } in
  let o2 = { Kv.id = 1; kind = Kv.Put; key = 2; v1 = 20; v2 = 0 } in
  Kv.apply a o1;
  Kv.apply a o2;
  Kv.apply b o2;
  Kv.apply b o1;
  check_int "state digest order-free" (Kv.digest a) (Kv.digest b);
  check "batch digest order-sensitive" true
    (Kv.batch_digest [| o1; o2 |] <> Kv.batch_digest [| o2; o1 |])

(* --- Workload --- *)

let small_spec =
  {
    Workload.ops = 4_000;
    sessions = 50_000;
    keys = 512;
    theta = 0.9;
    window = 1_500;
    burst_every = 300;
    burst_len = 50;
    burst_mult = 4.0;
    seed = 5;
  }

let test_workload_shape () =
  let n = 3 in
  let wl = Workload.create ~n small_spec in
  check_int "total" small_spec.Workload.ops (Workload.total wl);
  let seen = Array.make n 0 in
  for i = 0 to Workload.total wl - 1 do
    check "ascending arrivals" true
      (i = 0 || Workload.arrival wl i >= Workload.arrival wl (i - 1));
    check "arrival in window" true
      (Workload.arrival wl i >= 1 && Workload.arrival wl i <= small_spec.Workload.window);
    let o = Workload.origin wl i in
    seen.(o) <- seen.(o) + 1;
    let op = Workload.op wl i in
    check_int "id = index" i op.Kv.id;
    check "key in range" true (op.Kv.key >= 0 && op.Kv.key < small_spec.Workload.keys)
  done;
  check_int "origins partition the ops" (Workload.total wl)
    (Array.fold_left ( + ) 0 seen);
  Array.iteri
    (fun p c -> check_int "per_replica sizes" c (Array.length (Workload.per_replica wl p)))
    seen

let test_workload_determinism () =
  let a = Workload.create ~n:3 small_spec in
  let b = Workload.create ~n:3 small_spec in
  let c = Workload.create ~n:3 { small_spec with Workload.seed = 6 } in
  check_int "same seed, same trace" (Workload.digest a) (Workload.digest b);
  check "different seed, different trace" true (Workload.digest a <> Workload.digest c)

(* --- Mv_consensus, hand-routed --- *)

let test_mv_agreement () =
  let n = 3 in
  let proposals = [| [| 10 |]; [| 20; 21 |]; [| 30 |] |] in
  let engines = Array.make n None in
  let queue = Queue.create () in
  let route src outs =
    List.iter
      (function
        | Mv_consensus.To (d, m) -> Queue.add (src, d, m) queue
        | Mv_consensus.All m ->
          for d = 0 to n - 1 do
            Queue.add (src, d, m) queue
          done)
      outs
  in
  for p = 0 to n - 1 do
    let e, outs =
      Mv_consensus.create ~n ~self:p ~base:0 ~weight:Array.length
        ~proposal:proposals.(p)
    in
    engines.(p) <- Some e;
    route p outs
  done;
  let decided = ref [] in
  let steps = ref 0 in
  while (not (Queue.is_empty queue)) && !steps < 10_000 do
    incr steps;
    let src, dst, m = Queue.pop queue in
    let e = Option.get engines.(dst) in
    let e, outs, verdict = Mv_consensus.receive e ~src m in
    engines.(dst) <- Some e;
    route dst outs;
    match verdict with
    | Mv_consensus.Decided v -> decided := v :: !decided
    | Mv_consensus.Continue -> ()
  done;
  check "someone decided" true (!decided <> []);
  let v0 = List.hd !decided in
  check "agreement" true (List.for_all (fun v -> v = v0) !decided);
  check "validity" true (Array.exists (fun p -> p = v0) proposals)

(* --- end-to-end service runs --- *)

let tiny_wl ?(seed = 5) ?(ops = 4_000) ?(window = 1_500) n =
  Workload.create ~n
    { small_spec with Workload.ops; window; seed }

let test_service_fault_free () =
  let n = 3 in
  let wl = tiny_wl n in
  let r = Service.run ~wl (Service.default_params ~n ~seed:42) in
  check "converged" true r.Service.converged;
  check_int "all ops committed" (Workload.total wl) r.Service.unique_ops;
  check_int "all slots agree" r.Service.slots_checked r.Service.slots_agreeing;
  check "made slots" true (r.Service.committed_slots > 0);
  check "latency measured" true (r.Service.latency <> None);
  check "all committed ops measured" true (r.Service.measured_ops >= r.Service.unique_ops)

(* The convergence property: under injected crash, omission and
   corruption-storm faults, the self-stabilizing tower still converges —
   equal logs and KV digests on every live replica, and every fully
   shared slot applied with the same digest everywhere (the quiescent
   points of the run). *)
let test_service_converges_under_faults () =
  let n = 5 in
  let wl = tiny_wl ~seed:8 ~ops:5_000 ~window:2_000 n in
  let params =
    {
      (Service.default_params ~n ~seed:9) with
      Service.faults =
        {
          Service.storms = [ (900, 2); (1_400, 2) ];
          omission = [ (600, 800, 0.3) ];
          crashes = [ (4, 1_000) ];
        };
    }
  in
  let r = Service.run ~wl params in
  check "converged under faults" true r.Service.converged;
  check_int "every shared slot agrees" r.Service.slots_checked r.Service.slots_agreeing;
  (* Ops whose origin replica crashes may never enter the system (their
     ingress died — an open-system client would retry); every op
     originating at a live replica must be committed exactly once. *)
  let live_origin_ops = ref 0 in
  for i = 0 to Workload.total wl - 1 do
    if Workload.origin wl i <> 4 then incr live_origin_ops
  done;
  check "no live-origin op lost" true (r.Service.unique_ops >= !live_origin_ops);
  check "no op duplicated across ids" true (r.Service.unique_ops <= Workload.total wl);
  check "storms triggered repairs" true (r.Service.recoveries > 0);
  check "storm recovery measured" true
    (List.exists (fun (_, resumed, _) -> resumed <> None) r.Service.storm_recovery)

let test_service_baseline_has_no_repair () =
  let n = 5 in
  let wl = tiny_wl ~seed:8 ~ops:2_000 n in
  let params =
    {
      (Service.default_params ~n ~seed:9) with
      Service.style = Tob.baseline;
      faults = { Service.no_faults with Service.storms = [ (900, 2) ] };
    }
  in
  let r = Service.run ~wl params in
  check_int "baseline never repairs" 0 r.Service.recoveries

(* Golden determinism: the full run — workload, simulation, fault
   schedule, measurement — is a pure function of its seeds. The digest
   below was produced by this test's first run and must never change by
   accident; an intentional protocol change updates it deliberately. *)
let golden_digest = 1501098962929763131

let test_service_golden_determinism () =
  let n = 4 in
  let wl = tiny_wl ~seed:13 ~ops:3_000 n in
  let params =
    {
      (Service.default_params ~n ~seed:21) with
      Service.faults =
        { Service.no_faults with Service.storms = [ (800, 1) ]; omission = [ (500, 600, 0.2) ] };
    }
  in
  let r1 = Service.run ~wl params in
  let r2 = Service.run ~wl params in
  check_int "replayable" (Service.report_digest r1) (Service.report_digest r2);
  check "converged" true r1.Service.converged;
  check_int "pinned digest" golden_digest (Service.report_digest r1)

(* Sharded golden: the merged report is a pure function of
   (spec, params, shards) — the executing domain count must be
   invisible. Run the same 4-shard partition on 1, 2 and 4 domains and
   pin the digests to each other and to the single-shard law that every
   shard converges. *)
let test_service_sharded_domain_independent () =
  let n = 4 in
  let spec = { small_spec with Workload.ops = 3_000; window = 1_200; seed = 31 } in
  let params =
    {
      (Service.default_params ~n ~seed:57) with
      Service.faults =
        { Service.no_faults with Service.storms = [ (700, 1) ] };
    }
  in
  let run domains =
    Service.run_sharded ~domains ~shards:4 ~spec params
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  check "converged" true r1.Service.converged;
  check "ops committed" true (r1.Service.unique_ops > 0);
  check_int "2 domains = 1 domain"
    (Service.report_digest r1) (Service.report_digest r2);
  check_int "4 domains = 1 domain"
    (Service.report_digest r1) (Service.report_digest r4);
  (* The merge itself is replayable. *)
  check_int "replayable" (Service.report_digest r1) (Service.report_digest (run 1))

let suite =
  [
    ( "service",
      [
        Alcotest.test_case "kv semantics" `Quick test_kv_semantics;
        Alcotest.test_case "kv incremental digest" `Quick
          test_kv_incremental_digest_matches_recompute;
        Alcotest.test_case "kv digest order (in)dependence" `Quick
          test_kv_order_independence;
        QCheck_alcotest.to_alcotest prop_kv_matches_model;
        Alcotest.test_case "workload shape" `Quick test_workload_shape;
        Alcotest.test_case "workload determinism" `Quick test_workload_determinism;
        Alcotest.test_case "mv consensus agreement" `Quick test_mv_agreement;
        Alcotest.test_case "fault-free run converges" `Quick test_service_fault_free;
        Alcotest.test_case "faulted run converges (property)" `Quick
          test_service_converges_under_faults;
        Alcotest.test_case "baseline never repairs" `Quick
          test_service_baseline_has_no_repair;
        Alcotest.test_case "golden determinism" `Quick test_service_golden_determinism;
        Alcotest.test_case "sharded runs are domain-count independent" `Quick
          test_service_sharded_domain_independent;
      ] );
  ]
