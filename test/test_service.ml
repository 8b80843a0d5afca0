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
        | Ftss_async.Mv_consensus.To (d, m) -> Queue.add (src, d, m) queue
        | Ftss_async.Mv_consensus.All m ->
          for d = 0 to n - 1 do
            Queue.add (src, d, m) queue
          done)
      outs
  in
  for p = 0 to n - 1 do
    let e, outs =
      Ftss_async.Mv_consensus.create ~n ~self:p ~base:0 ~weight:Array.length
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
    let e, outs, verdict = Ftss_async.Mv_consensus.receive e ~src m in
    engines.(dst) <- Some e;
    route dst outs;
    match verdict with
    | Ftss_async.Mv_consensus.Decided v -> decided := v :: !decided
    | Ftss_async.Mv_consensus.Continue -> ()
  done;
  check "someone decided" true (!decided <> []);
  let v0 = List.hd !decided in
  check "agreement" true (List.for_all (fun v -> v = v0) !decided);
  check "validity" true (Array.exists (fun p -> p = v0) proposals)

(* --- Tob's pending FIFO against a Stdlib.Queue model --- *)

(* The test oracle: the pending-op path as a [Stdlib.Queue] plus two id
   sets — enqueue dedup by id, head pruning of committed ops, the
   proposal as the first [batch_max] uncommitted ops in FIFO order, and
   the recovery refilter. It is never used outside this test. *)
type fifo_model = {
  q : Kv.op Queue.t;
  queued : (int, unit) Hashtbl.t;
  done_ : (int, unit) Hashtbl.t;
}

let model_is_done m (o : Kv.op) = Hashtbl.mem m.done_ o.Kv.id

let model_enqueue m ops =
  Array.iter
    (fun (o : Kv.op) ->
      if not (model_is_done m o || Hashtbl.mem m.queued o.Kv.id) then begin
        Hashtbl.replace m.queued o.Kv.id ();
        Queue.add o m.q
      end)
    ops

let rec model_prune m =
  match Queue.peek_opt m.q with
  | Some o when model_is_done m o ->
    ignore (Queue.pop m.q);
    model_prune m
  | _ -> ()

let model_has_pending m =
  model_prune m;
  not (Queue.is_empty m.q)

let model_batch m ~batch_max =
  model_prune m;
  let acc = ref [] and count = ref 0 in
  (try
     Queue.iter
       (fun o ->
         if not (model_is_done m o) then begin
           acc := o :: !acc;
           incr count;
           if !count >= batch_max then raise Exit
         end)
       m.q
   with Exit -> ());
  Array.of_list (List.rev !acc)

(* Recovery: the committed log is the new truth for done-ness, and the
   queue keeps the first copy of each uncommitted id. *)
let model_rebuild m log =
  Hashtbl.reset m.done_;
  Hashtbl.reset m.queued;
  List.iter (Array.iter (fun (o : Kv.op) -> Hashtbl.replace m.done_ o.Kv.id ())) log;
  let keep = Queue.create () in
  Queue.iter
    (fun (o : Kv.op) ->
      if not (model_is_done m o || Hashtbl.mem m.queued o.Kv.id) then begin
        Hashtbl.replace m.queued o.Kv.id ();
        Queue.add o keep
      end)
    m.q;
  Queue.clear m.q;
  Queue.transfer keep m.q

type fifo_action =
  | Fwd of bool * (int * int) list
      (* through [submit]?, (age, salt): age 0 is a new id, age k the id
         k below the next new one *)
  | Decide of bool * int * int list * int list
      (* one slot ahead?, how many pending ops from the front, further
         positions among the pending ops, ages *)
  | Tag
  | Corrupt of int

let fifo_age = QCheck.Gen.(frequency [ (3, return 0); (1, int_range 1 60) ])

let fifo_action =
  QCheck.Gen.(
    frequency
      [
        ( 16,
          map2
            (fun via ops -> Fwd (via, ops))
            bool
            (list_size (int_range 1 40) (pair fifo_age (int_bound 3))) );
        ( 12,
          map4
            (fun ahead front picks ages -> Decide (ahead, front, picks, ages))
            (frequency [ (1, return true); (4, return false) ])
            (int_bound 64)
            (list_size (int_range 0 8) (frequency [ (2, int_bound 20); (1, int_bound 400) ]))
            (list_size (int_range 0 3) fifo_age) );
        (2, return Tag);
        (1, map (fun seed -> Corrupt seed) (int_bound 1_000_000));
      ])

(* The proposals a call emitted: every fresh engine sends its proposal
   as the estimate of a round-0 [Est]. *)
let proposals outs =
  List.filter_map
    (function
      | Tob.Send (_, Tob.Cons { m = Ftss_async.Mv_consensus.Est { estimate; _ }; _ })
      | Tob.Bcast (Tob.Cons { m = Ftss_async.Mv_consensus.Est { estimate; _ }; _ }) -> Some estimate
      | _ -> None)
    outs

(* One replica of three, driven through the public API only: [Fwd]s and
   [submit]s with duplicate ids (a later copy of an id carries another
   salt, so keeping the first copy is checked), [Decide]s that commit
   ops from anywhere in the FIFO and ops never seen, decisions one slot
   ahead, [Tag]s that make an idle replica propose, and corruptions
   followed by recovery. Ids span far more than the initial FIFO and
   bitset sizes, so the run crosses grow and compaction steps. Every
   proposal must equal the model's; at the end, committing each
   proposal in turn must walk the whole FIFO in the model's order. *)
let prop_tob_fifo_matches_queue =
  QCheck.Test.make ~name:"Tob pending FIFO proposes like a Stdlib.Queue model" ~count:50
    QCheck.(
      pair
        (make ~print:(fun acts -> Printf.sprintf "%d actions" (List.length acts))
           Gen.(list_size (int_range 100 400) fifo_action))
        (make ~print:string_of_int Gen.(int_range 1 48)))
    (fun (actions, batch_max) ->
      let t =
        Tob.create ~n:3 ~self:0 ~style:Tob.self_stabilizing ~batch_max ~id_hint:64 ()
      in
      let m =
        { q = Queue.create (); queued = Hashtbl.create 64; done_ = Hashtbl.create 64 }
      in
      let next = ref 0 in
      let op age salt =
        let id = if age = 0 then (incr next; !next - 1) else max 0 (!next - age) in
        { Kv.id; kind = Kv.Put; key = id; v1 = salt; v2 = 0 }
      in
      let now = ref 0 in
      (* Whether the replica holds an engine for its next slot: set by
         every proposal, cleared by every commit and every recovery. *)
      let engine = ref false in
      let ok = ref true in
      let expect outs want =
        let got = proposals outs in
        (match (got, want) with
        | [], None -> ()
        | [ b ], Some w when b = w -> ()
        | _ -> ok := false);
        if got <> [] then engine := true
      in
      let step call =
        incr now;
        let committed = Tob.committed t and recoveries = Tob.recoveries t in
        let outs = call () in
        if Tob.recoveries t <> recoveries then begin
          engine := false;
          model_rebuild m (List.init (Tob.committed t) (Tob.log_entry t))
        end
        else
          for slot = committed to Tob.committed t - 1 do
            engine := false;
            Array.iter
              (fun (o : Kv.op) -> Hashtbl.replace m.done_ o.Kv.id ())
              (Tob.log_entry t slot)
          done;
        ignore (Tob.drain_notes t);
        outs
      in
      let decide slot batch =
        let before = Tob.committed t in
        let outs = step (fun () -> Tob.deliver t ~now:!now ~src:1 (Tob.Decide { slot; batch })) in
        expect outs
          (if Tob.committed t > before && model_has_pending m then
             Some (model_batch m ~batch_max)
           else None)
      in
      List.iter
        (fun act ->
          if !ok then
            match act with
            | Fwd (via_submit, aged) ->
              let ops = Array.of_list (List.map (fun (age, salt) -> op age salt) aged) in
              let outs =
                step (fun () ->
                    if via_submit then Tob.submit t ~now:!now ops
                    else Tob.deliver t ~now:!now ~src:2 (Tob.Fwd ops))
              in
              model_enqueue m ops;
              expect outs None
            | Decide (ahead, front, picks, ages) ->
              model_prune m;
              let pending =
                Array.of_list
                  (List.filter
                     (fun o -> not (model_is_done m o))
                     (List.of_seq (Queue.to_seq m.q)))
              in
              let len = Array.length pending in
              let picked =
                if len = 0 then []
                else
                  Array.to_list (Array.sub pending 0 (min front len))
                  @ List.map (fun p -> pending.(p mod len)) picks
              in
              let batch = Array.of_list (picked @ List.map (fun age -> op age 9) ages) in
              decide (Tob.committed t + if ahead then 1 else 0) batch
            | Tag ->
              let idle = not !engine in
              let outs =
                step (fun () ->
                    Tob.deliver t ~now:!now ~src:1
                      (Tob.Tag
                         { len = Tob.committed t; round = 0; cp = -1; cp_log = 0; kvh = 0; kv_d = 0 }))
              in
              expect outs (if idle then Some (model_batch m ~batch_max) else None)
            | Corrupt seed ->
              ignore (Tob.corrupt (Rng.create seed) t);
              expect (step (fun () -> Tob.submit t ~now:!now [||])) None)
        actions;
      (* Drain: commit each proposal as decided until nothing is pending. *)
      let rounds = ref 0 in
      while !ok && model_has_pending m && !rounds < 10_000 do
        incr rounds;
        decide (Tob.committed t) (model_batch m ~batch_max)
      done;
      !ok && not (model_has_pending m))

(* [corrupt] may scramble [committed] to any height up to the log's
   capacity, and the guard reads the prefix digest at that height before
   recovery runs. Just past a log growth step the capacity runs well
   ahead of the committed prefix; every scrambled height must still be
   caught and repaired, not crash the guard. *)
let test_tob_corrupt_height_recovers () =
  List.iter
    (fun height ->
      for seed = 0 to 59 do
        let t = Tob.create ~n:3 ~self:0 ~style:Tob.self_stabilizing ~batch_max:8 () in
        for slot = 0 to height - 1 do
          ignore (Tob.deliver t ~now:slot ~src:1 (Tob.Decide { slot; batch = [||] }))
        done;
        ignore (Tob.corrupt (Rng.create seed) t);
        ignore (Tob.submit t ~now:height [||]);
        check "content digest = maintained digest" true
          (Tob.content_digest t = Tob.log_digest t)
      done)
    [ 129; 257 ]

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
        QCheck_alcotest.to_alcotest prop_tob_fifo_matches_queue;
        Alcotest.test_case "tob recovers any corrupted height" `Quick
          test_tob_corrupt_height_recovers;
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
