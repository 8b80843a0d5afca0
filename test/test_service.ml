(* Tests for the service tower: the KV state machine and its digests, the
   workload generator, the multivalued consensus engine, and end-to-end
   Service runs — fault-free, under the full crash/omission/storm mix
   (the convergence property test), and a golden determinism pin. *)

open Ftss_util
open Ftss_service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Kv --- *)

let apply t o = Kv.apply_batch t [| o |]

(* A table's digest stands for its contents: each step is checked
   against a fresh table built from puts of the expected bindings. *)
let test_kv_semantics () =
  let op kind key v1 v2 = { Kv.id = 0; kind; key; v1; v2 } in
  let holding bindings =
    let t = Kv.create () in
    Kv.apply_batch t (Array.of_list (List.map (fun (k, v) -> op Kv.Put k v 0) bindings));
    Kv.digest t
  in
  let t = Kv.create () in
  let after name o want =
    apply t o;
    check_int name (holding want) (Kv.digest t)
  in
  after "put" (op Kv.Put 7 42 0) [ (7, 42) ];
  after "get changes nothing" (op Kv.Get 7 0 0) [ (7, 42) ];
  after "cas miss" (op Kv.Cas 7 41 99) [ (7, 42) ];
  after "cas hit" (op Kv.Cas 7 42 99) [ (7, 99) ];
  after "deleted" (op Kv.Delete 7 0 0) [];
  after "absent reads 0" (op Kv.Cas 8 0 5) [ (8, 5) ];
  (* put 0 is a distinct state from absent *)
  check "put0 <> absent" true (holding [ (1, 0) ] <> holding [])

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

let test_kv_incremental_digest_matches_recompute () =
  let t = Kv.create () and m = Hashtbl.create 64 in
  let rng = Rng.create 11 in
  for id = 0 to 4999 do
    let kind =
      match Rng.int rng 4 with 0 -> Kv.Put | 1 -> Kv.Get | 2 -> Kv.Cas | _ -> Kv.Delete
    in
    let o = { Kv.id; kind; key = Rng.int rng 64; v1 = Rng.int rng 16; v2 = Rng.int rng 100 } in
    apply t o;
    model_apply m o
  done;
  check_int "incremental = recompute" (Kv.recompute_digest t) (Kv.digest t);
  Kv.corrupt (Rng.create 12) ~keys:64 t;
  model_corrupt (Rng.create 12) ~keys:64 m;
  (* after raw scrambling, recompute is the ground truth the audit uses:
     it reads the table, scrambled as the model is, not the field *)
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

(* A delete-heavy stream over the distinct [keys], in a shuffled order:
   fill in rounds of three puts and one delete of a random live key,
   drain to empty in random order, then refill the same way. Deletes hit
   the newest entry (the drain's last one always) and entries inside
   clusters; a grow step from size 2^k to 2^k + 1 is always the put
   right after a delete. *)
let churn_ops keys seed =
  let rng = Rng.create seed in
  let keys = Array.copy keys in
  for i = Array.length keys - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let k = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- k
  done;
  let live = Array.make (Array.length keys) 0 and n = ref 0 and out = ref [] in
  let emit kind key = out := { Kv.id = 0; kind; key; v1 = Rng.int rng 1_000; v2 = 0 } :: !out in
  let put key =
    emit Kv.Put key;
    live.(!n) <- key;
    incr n
  in
  let delete () =
    let j = Rng.int rng !n in
    emit Kv.Delete live.(j);
    decr n;
    live.(j) <- live.(!n)
  in
  let fill () =
    Array.iteri
      (fun i key ->
        put key;
        if i mod 3 = 2 then delete ())
      keys
  in
  fill ();
  while !n > 0 do
    delete ()
  done;
  fill ();
  List.rev !out

(* A run's steps: a churn on the fresh table, mixed ops, a [Kv.reset]
   (which keeps the capacity, as [Tob]'s log replay does), a churn at
   the kept capacity, and more mixed ops. Both churns start and drain
   to an empty table. *)
type kv_step = Op of Kv.op | Reset

let kv_churn =
  QCheck.Gen.(
    map2
      (fun keys seed -> churn_ops (Array.of_list (List.sort_uniq compare keys)) seed)
      (list_size (int_range 1_500 2_400) kv_key)
      nat)

let kv_steps =
  QCheck.Gen.(
    map
      (fun (churn1, mixed1, churn2, mixed2) ->
        let ops l = List.map (fun o -> Op o) l in
        ops churn1 @ ops mixed1 @ (Reset :: ops churn2) @ ops mixed2)
      (quad kv_churn
         (list_size (int_range 1_000 4_000) kv_op)
         kv_churn
         (list_size (int_range 100 1_000) kv_op)))

(* After every op, the table's incremental digest and scanned digest
   both equal the model's; after a reset both are empty. At the end a
   seeded corruption scrambles both the same way. *)
let prop_kv_matches_model =
  QCheck.Test.make ~name:"Kv agrees with a Hashtbl model over colliding keys and grow steps"
    ~count:12
    QCheck.(
      pair
        (make ~print:(fun steps -> Printf.sprintf "%d steps" (List.length steps)) kv_steps)
        small_nat)
    (fun (steps, seed) ->
      let t = Kv.create () and m = Hashtbl.create 64 in
      List.for_all
        (function
          | Reset ->
            Kv.reset t;
            Hashtbl.reset m;
            Kv.digest t = 0 && Kv.recompute_digest t = 0
          | Op (o : Kv.op) ->
            apply t o;
            model_apply m o;
            let d = model_digest m in
            Kv.digest t = d && Kv.recompute_digest t = d)
        steps
      && begin
        Kv.corrupt (Rng.create seed) ~keys:8 t;
        model_corrupt (Rng.create seed) ~keys:8 m;
        Kv.recompute_digest t = model_digest m
      end)

(* The hash and every digest built from it, pinned on fixed inputs that
   include negative keys and the extreme ints. The values were recorded
   from the slot-array table the dense store replaced. *)
let test_kv_hash_pins () =
  let op id kind key v1 v2 = { Kv.id; kind; key; v1; v2 } in
  let ops =
    [|
      op 0 Kv.Put (-5) 17 0; op 1 Kv.Put min_int max_int 0; op 2 Kv.Put max_int min_int 0;
      op 3 Kv.Cas (-5) 17 (-1); op 4 Kv.Put 0 0 0; op 5 Kv.Delete 0 0 0;
      op 6 Kv.Put (1 lsl 40) 3 0; op 7 Kv.Get (-5) 0 0; op max_int Kv.Put 99 (-99) min_int;
    |]
  in
  List.iter
    (fun (a, b, want) -> check_int (Printf.sprintf "mix %d %d" a b) want (Kv.mix a b))
    [
      (0, 0, 2122676604869372885);
      (1, 2, 1616219016913665920);
      (-1, 5, 3929685785845261825);
      (min_int, max_int, 3206573033969516176);
      (max_int, min_int, 245242865510681317);
      (123_456_789, -987_654_321, 1532179890896739851);
    ];
  List.iter
    (fun (a, b, want) -> check_int (Printf.sprintf "chain %d %d" a b) want (Kv.chain a b))
    [
      (1, 42, 1374277818845099978);
      (max_int, min_int, 2189114785184071657);
      (-7, 0, 3633701304081578997);
    ];
  List.iter2
    (fun o want -> check_int (Printf.sprintf "op_digest #%d" o.Kv.id) want (Kv.op_digest o))
    (Array.to_list ops)
    [
      190285198749457481; 625726094033625354; 3648822464289031041; 723818305805774664;
      841695131837571382; 4259722057169172350; 3022229126970332807; 3000896405744518304;
      3235095628554891194;
    ];
  check_int "batch_digest" 3864964336868132260 (Kv.batch_digest ops);
  check_int "batch_digest [||]" 1 (Kv.batch_digest [||]);
  let t = Kv.create () in
  Kv.apply_batch t ops;
  check_int "recompute_digest" 3264424038516804452 (Kv.recompute_digest t);
  check_int "digest" 3264424038516804452 (Kv.digest t);
  (* 6,001 puts through two grow steps, then every third key deleted. *)
  let t = Kv.create () in
  for k = -3000 to 3000 do
    apply t (op k Kv.Put (k * 7919) (k lxor 0x5555) 0)
  done;
  for k = -3000 to 3000 do
    if k mod 3 = 0 then apply t (op k Kv.Delete k 0 0)
  done;
  check_int "recompute_digest (6,001 puts, 2,001 deletes)" 1470098506990246505
    (Kv.recompute_digest t)

(* Once the table has reached its final capacity, ops of all four kinds
   and digest scans allocate nothing. *)
let test_kv_ops_allocate_nothing () =
  let rng = Rng.create 13 and keys = 4_096 in
  let ops =
    Array.init 100_000 (fun id ->
        let kind =
          match Rng.int rng 4 with 0 -> Kv.Get | 1 -> Kv.Put | 2 -> Kv.Cas | _ -> Kv.Delete
        in
        { Kv.id; kind; key = Rng.int rng keys; v1 = Rng.int rng 4; v2 = Rng.int rng 4 })
  in
  let t = Kv.create () in
  Kv.apply_batch t (Array.init keys (fun key -> { Kv.id = 0; kind = Kv.Put; key; v1 = 0; v2 = 0 }));
  Kv.apply_batch t ops;
  let sink = ref 0 in
  let before = Gc.minor_words () in
  Kv.apply_batch t ops;
  Kv.apply_batch t ops;
  for _ = 1 to 100 do
    sink := !sink + Kv.recompute_digest t
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check (float 0.)) "minor words" 0. words

let test_kv_order_independence () =
  (* state digest is order-independent; batch digest is order-dependent *)
  let a = Kv.create () and b = Kv.create () in
  let o1 = { Kv.id = 0; kind = Kv.Put; key = 1; v1 = 10; v2 = 0 } in
  let o2 = { Kv.id = 1; kind = Kv.Put; key = 2; v1 = 20; v2 = 0 } in
  Kv.apply_batch a [| o1; o2 |];
  Kv.apply_batch b [| o2; o1 |];
  check_int "state digest order-free" (Kv.digest a) (Kv.digest b);
  check "batch digest order-sensitive" true
    (Kv.batch_digest [| o1; o2 |] <> Kv.batch_digest [| o2; o1 |])

(* A table sized up front holds what a growing one holds: fed one random
   put/cas/delete/get stream over more keys than a default table starts
   with, a presized table and a default one agree on both digests at
   every step. A zero or at-default size is the default table. *)
let test_kv_presized_matches_default () =
  check "~keys:0 is the default table" true (Kv.create ~keys:0 () = Kv.create ());
  check "~keys:512 is the default table" true (Kv.create ~keys:512 () = Kv.create ());
  check "~keys:513 is larger" false (Kv.create ~keys:513 () = Kv.create ());
  let keys = 3_000 in
  let rng = Rng.create 29 in
  let sized = Kv.create ~keys () and grown = Kv.create () in
  for id = 0 to 12_000 - 1 do
    let kind =
      match Rng.int rng 8 with
      | 0 | 1 | 2 -> Kv.Put
      | 3 | 4 -> Kv.Cas
      | 5 | 6 -> Kv.Delete
      | _ -> Kv.Get
    in
    let o = { Kv.id; kind; key = Rng.int rng keys; v1 = Rng.int rng 4; v2 = Rng.int rng 99 } in
    apply sized o;
    apply grown o;
    if Kv.digest sized <> Kv.digest grown then Alcotest.failf "digest differs at op %d" id;
    if Kv.recompute_digest sized <> Kv.recompute_digest grown then
      Alcotest.failf "recomputed digest differs at op %d" id
  done;
  check "the stream leaves live entries" false (Kv.digest grown = 0)

(* --- Workload --- *)

(* A digest over the generated trace: every op with its arrival time and
   origin, chained in order. *)
let workload_digest ~n w =
  let h = ref (Kv.mix n (Workload.spec w).Workload.seed) in
  for i = 0 to Workload.total w - 1 do
    h :=
      Kv.chain !h
        (Kv.mix (Kv.op_digest (Workload.op w i)) (Kv.mix (Workload.arrival w i) (Workload.origin w i)))
  done;
  !h

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
  check_int "same seed, same trace" (workload_digest ~n:3 a) (workload_digest ~n:3 b);
  check "different seed, different trace" true
    (workload_digest ~n:3 a <> workload_digest ~n:3 c)

(* The oracle for the computed forms: one array entry per op, filled by
   the per-tick float loop (ops that rounding leaves over arrive at the
   window's end), each op's replica, and each replica's ids. *)
let oracle_arrivals (spec : Workload.spec) =
  let weight t =
    if spec.burst_every > 0 && (t - 1) mod spec.burst_every < spec.burst_len then
      spec.burst_mult
    else 1.0
  in
  let total_w = ref 0.0 in
  for t = 1 to spec.window do
    total_w := !total_w +. weight t
  done;
  let arrivals = Array.make spec.ops spec.window in
  let assigned = ref 0 and cum = ref 0.0 in
  for t = 1 to spec.window do
    cum := !cum +. weight t;
    let upto =
      min spec.ops (int_of_float (Float.round (float_of_int spec.ops *. !cum /. !total_w)))
    in
    for i = !assigned to upto - 1 do
      arrivals.(i) <- t
    done;
    assigned := max !assigned upto
  done;
  arrivals

let oracle_by_origin ~n (spec : Workload.spec) =
  let origins = Array.init spec.ops (fun id -> id mod spec.sessions mod n) in
  Array.init n (fun p ->
      Array.of_list (List.filter (fun id -> origins.(id) = p) (List.init spec.ops Fun.id)))

(* Arrival, origin and the per-replica partition against the oracle over
   specs where sessions wrap below n, below ops, or not at all; with no
   ops, fewer ops than a 64-op bucket, a window shorter or much longer
   than the op count, and bursts on or off. *)
let test_workload_matches_oracle () =
  let base = { small_spec with Workload.ops = 1_000; window = 400 } in
  let grid =
    [
      (5, { base with Workload.sessions = 3 });
      (5, { base with Workload.sessions = 7 });
      (3, { base with Workload.sessions = 100 });
      (5, { base with Workload.ops = 0 });
      (4, { base with Workload.ops = 63; sessions = 2 });
      (4, { base with Workload.ops = 65; window = 1 });
      (3, { base with Workload.ops = 200; window = 5_000 });
      (5, { base with Workload.ops = 3_001; window = 700; sessions = 11 });
      (2, { base with Workload.burst_every = 0 });
      (5, { base with Workload.burst_every = 0; ops = 4_097; sessions = 7 });
      (1, { base with Workload.burst_mult = 9.5; burst_len = 1; burst_every = 3 });
    ]
  in
  List.iter
    (fun (n, (spec : Workload.spec)) ->
      let name = Printf.sprintf "n=%d ops=%d sessions=%d window=%d bursts=%d" n spec.ops
          spec.sessions spec.window spec.burst_every
      in
      let wl = Workload.create ~n spec in
      let arrivals = oracle_arrivals spec and by_origin = oracle_by_origin ~n spec in
      check_int (name ^ ": total") spec.ops (Workload.total wl);
      for id = 0 to spec.ops - 1 do
        if Workload.arrival wl id <> arrivals.(id) then
          Alcotest.failf "%s: arrival %d is %d, not %d" name id (Workload.arrival wl id)
            arrivals.(id);
        if Workload.origin wl id <> id mod spec.sessions mod n then
          Alcotest.failf "%s: origin %d" name id
      done;
      let covered = Array.make spec.ops 0 in
      for p = 0 to n - 1 do
        let ids = Workload.per_replica wl p in
        check (name ^ ": per_replica equals the oracle") true (ids = by_origin.(p));
        Array.iteri
          (fun i id ->
            check (name ^ ": ascending") true (i = 0 || ids.(i - 1) < id);
            check_int (name ^ ": id's origin") p (Workload.origin wl id);
            covered.(id) <- covered.(id) + 1)
          ids
      done;
      check (name ^ ": partition of [0, total)") true (Array.for_all (( = ) 1) covered);
      check (name ^ ": cached") true (Workload.per_replica wl 0 == Workload.per_replica wl 0))
    grid

(* Memory gate: a workload holds its op records (5 fields and a header)
   and the ops array's pointer to each, plus one int per tick and one per
   64 ops, and nothing else per op. *)
let test_workload_memory () =
  let spec = { Workload.default_spec with Workload.ops = 100_000 } in
  let wl = Workload.create ~n:5 spec in
  let words = Obj.reachable_words (Obj.repr wl) in
  let bound = (7 * spec.ops) + spec.window + (spec.ops / 64) + 64 in
  if words > bound then
    Alcotest.failf "workload reaches %d words, above %d (%.2f per op)" words bound
      (float_of_int words /. float_of_int spec.ops)

(* Trace pins over a grid of key-space sizes, skews and burst settings,
   recorded from the binary-search sampler the guide table replaced:
   (keys, theta, bursts, digest). One key, two keys and a prime exercise
   the degenerate and odd-sized tables; 65,536 keys is E14's space. *)
let workload_pins =
  [
    (1, 0.0, false, 583154628115178867);
    (1, 0.0, true, 1890696156595668413);
    (1, 0.9, false, 583154628115178867);
    (1, 0.9, true, 1890696156595668413);
    (1, 2.0, false, 583154628115178867);
    (1, 2.0, true, 1890696156595668413);
    (2, 0.0, false, 2197719854823766325);
    (2, 0.0, true, 147792445185841707);
    (2, 0.9, false, 3704085756669994031);
    (2, 0.9, true, 3385673133283525640);
    (2, 2.0, false, 2136570348818862264);
    (2, 2.0, true, 2272057802389824379);
    (7, 0.0, false, 2065984252242324403);
    (7, 0.0, true, 1696600994329381408);
    (7, 0.9, false, 2564270367123096730);
    (7, 0.9, true, 3258993879467165309);
    (7, 2.0, false, 2173248275878854814);
    (7, 2.0, true, 918034503665993518);
    (65_536, 0.0, false, 1453769010685607555);
    (65_536, 0.0, true, 2378847516131283256);
    (65_536, 0.9, false, 1549848191071931184);
    (65_536, 0.9, true, 3569618326912874310);
    (65_536, 2.0, false, 3191397442724167268);
    (65_536, 2.0, true, 1221570332989467853);
  ]

let test_workload_pinned_digests () =
  let base =
    {
      Workload.default_spec with
      Workload.ops = 3_000;
      sessions = 700;
      window = 900;
      burst_len = 30;
      seed = 17;
    }
  in
  List.iter
    (fun (keys, theta, bursts, expected) ->
      let spec =
        { base with Workload.keys; theta; burst_every = (if bursts then 150 else 0) }
      in
      check_int
        (Printf.sprintf "digest keys=%d theta=%g bursts=%b" keys theta bursts)
        expected
        (workload_digest ~n:3 (Workload.create ~n:3 spec)))
    workload_pins;
  check_int "digest of 50,000 default-spec ops on 4 replicas" 459183891261596900
    (workload_digest ~n:4
       (Workload.create ~n:4 { Workload.default_spec with Workload.ops = 50_000 }))

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
   the recovery refilter. [src] records where each queued op sits in
   the array it was submitted in: only to tell which runs the replica's
   FIFO holds as one slice. It is never used outside this test. *)
type fifo_model = {
  q : Kv.op Queue.t;
  queued : (int, unit) Hashtbl.t;
  done_ : (int, unit) Hashtbl.t;
  src : (int, Kv.op array * int) Hashtbl.t;
}

let model_is_done m (o : Kv.op) = Hashtbl.mem m.done_ o.Kv.id

(* Returns the positions of [ops] it queued, in order. *)
let model_enqueue m ops =
  let kept = ref [] in
  Array.iteri
    (fun i (o : Kv.op) ->
      if not (model_is_done m o || Hashtbl.mem m.queued o.Kv.id) then begin
        Hashtbl.replace m.queued o.Kv.id ();
        Hashtbl.replace m.src o.Kv.id (ops, i);
        Queue.add o m.q;
        kept := i :: !kept
      end)
    ops;
  List.rev !kept

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

(* Whether [y] follows [x] directly in the array both were submitted in:
   then the replica's FIFO holds them in one slice. *)
let model_adjacent m (x : Kv.op) (y : Kv.op) =
  match (Hashtbl.find_opt m.src x.Kv.id, Hashtbl.find_opt m.src y.Kv.id) with
  | Some (a, i), Some (b, j) -> a == b && j = i + 1
  | _ -> false

(* How often a run met each case that splits or cuts a slice: a [Fwd]
   whose new ops are not contiguous in its array, a proposal that
   [batch_max] ends inside a slice, and a recovery refilter that drops
   ops from inside a slice, keeping ops on both sides. *)
type fifo_cover = { mutable split_fwd : int; mutable cut : int; mutable split_refilter : int }

(* A batch's ops, read through the public API: a fresh replica commits
   the batch as its slot 0. *)
let batch_ops b =
  let t = Tob.create ~n:3 ~self:0 ~style:Tob.self_stabilizing ~batch_max:1 () in
  ignore (Tob.deliver t ~now:0 ~src:1 (Tob.Decide { slot = 0; batch = b }));
  Tob.log_entry t 0

(* The proposals a call emitted: every fresh engine sends its proposal
   as the estimate of a round-0 [Est]. *)
let proposals outs =
  List.filter_map
    (function
      | Tob.Send (_, Tob.Cons { m = Ftss_async.Mv_consensus.Est { estimate; _ }; _ })
      | Tob.Bcast (Tob.Cons { m = Ftss_async.Mv_consensus.Est { estimate; _ }; _ }) ->
        Some (batch_ops estimate)
      | _ -> None)
    outs

(* One replica of three, driven through the public API only: [Fwd]s and
   [submit]s with duplicate ids (a later copy of an id carries another
   salt, so keeping the first copy is checked), [Decide]s that commit
   ops from anywhere in the FIFO and ops never seen, decisions one slot
   ahead (dropped: no messages and no commit), [Tag]s that make an idle
   replica propose, and corruptions followed by recovery. Ids span far
   more than the initial FIFO and bitset sizes, so the run crosses grow
   and compaction steps. The replica's FIFO holds slices of the
   submitted arrays, and [cover] counts the cases that split or cut
   them. Every proposal must equal the model's; at the end, committing
   each proposal in turn must walk the whole FIFO in the model's order. *)
let fifo_drive ?(cover = { split_fwd = 0; cut = 0; split_refilter = 0 }) (actions, batch_max) =
  let t =
    Tob.create ~n:3 ~self:0 ~style:Tob.self_stabilizing ~batch_max ~id_hint:64 ()
  in
  let m =
    {
      q = Queue.create ();
      queued = Hashtbl.create 64;
      done_ = Hashtbl.create 64;
      src = Hashtbl.create 64;
    }
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
  let pending () =
    List.filter (fun o -> not (model_is_done m o)) (List.of_seq (Queue.to_seq m.q))
  in
  let expect outs want =
    let got = proposals outs in
    (match (got, want) with
    | [], None -> ()
    | [ b ], Some w when b = w -> ()
    | _ -> ok := false);
    (match want with
    | Some w when Array.length w = batch_max -> (
      match List.nth_opt (pending ()) batch_max with
      | Some next when model_adjacent m w.(batch_max - 1) next -> cover.cut <- cover.cut + 1
      | _ -> ())
    | _ -> ());
    if got <> [] then engine := true
  in
  (* Whether the refilter split a slice: two ops it kept next to each
     other were one run before it, with ops between them dropped. *)
  let refilter () =
    let run = Hashtbl.create 64 and prev = ref None and r = ref 0 in
    Queue.iter
      (fun (o : Kv.op) ->
        (match !prev with Some p when model_adjacent m p o -> () | _ -> incr r);
        Hashtbl.replace run o.Kv.id !r;
        prev := Some o)
      m.q;
    model_rebuild m (List.init (Tob.committed t) (Tob.log_entry t));
    let kept = List.of_seq (Queue.to_seq m.q) in
    let rec split = function
      | (x : Kv.op) :: ((y : Kv.op) :: _ as rest) ->
        (Hashtbl.find_opt run x.Kv.id = Hashtbl.find_opt run y.Kv.id
        && not (model_adjacent m x y))
        || split rest
      | _ -> false
    in
    if split kept then cover.split_refilter <- cover.split_refilter + 1
  in
  let step call =
    incr now;
    let committed = Tob.committed t and recoveries = Tob.recoveries t in
    let outs = call () in
    if Tob.recoveries t <> recoveries then begin
      engine := false;
      refilter ()
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
    let outs =
      step (fun () ->
          Tob.deliver t ~now:!now ~src:1 (Tob.Decide { slot; batch = Tob.batch batch }))
    in
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
          (match model_enqueue m ops with
          | first :: _ :: _ as kept ->
            if List.nth kept (List.length kept - 1) - first >= List.length kept then
              cover.split_fwd <- cover.split_fwd + 1
          | _ -> ());
          expect outs None
        | Decide (ahead, front, picks, ages) ->
          model_prune m;
          let pending = Array.of_list (pending ()) in
          let len = Array.length pending in
          let picked =
            if len = 0 then []
            else
              Array.to_list (Array.sub pending 0 (min front len))
              @ List.map (fun p -> pending.(p mod len)) picks
          in
          let batch = Array.of_list (picked @ List.map (fun age -> op age 9) ages) in
          let before = Tob.committed t in
          if ahead then begin
            let outs =
              step (fun () ->
                  Tob.deliver t ~now:!now ~src:1
                    (Tob.Decide { slot = before + 1; batch = Tob.batch batch }))
            in
            if outs <> [] || Tob.committed t <> before then ok := false
          end
          else decide before batch
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
  !ok && not (model_has_pending m)

let fifo_case =
  QCheck.(
    pair
      (make ~print:(fun acts -> Printf.sprintf "%d actions" (List.length acts))
         Gen.(list_size (int_range 100 400) fifo_action))
      (make ~print:string_of_int Gen.(int_range 1 48)))

let prop_tob_fifo_matches_queue =
  QCheck.Test.make ~name:"Tob pending FIFO proposes like a Stdlib.Queue model" ~count:50
    fifo_case (fun case -> fifo_drive case)

(* The property's cases reach every slice case: 20 cases drawn from a
   fixed seed, each driven as the property drives it, must split a
   [Fwd] array, cut a slice at [batch_max] and split a slice in a
   recovery refilter, each at least once. *)
let test_tob_fifo_slice_cases () =
  let cover = { split_fwd = 0; cut = 0; split_refilter = 0 } in
  let rand = Random.State.make [| 41 |] in
  let cases = QCheck.Gen.generate ~rand ~n:20 (QCheck.gen fifo_case) in
  List.iter (fun case -> check "FIFO matches the model" true (fifo_drive ~cover case)) cases;
  check "a Fwd array splits into slices" true (cover.split_fwd > 0);
  check "batch_max cuts a slice" true (cover.cut > 0);
  check "a recovery refilter splits a slice" true (cover.split_refilter > 0)

(* A replica entering its next slot's engine with 2,048 ops pending in
   16 arrays proposes the first 1,024 as 8 slices of those arrays: a few
   hundred words, none of them directly in the major heap, where a
   copied 1,024-op proposal would be one 1,025-word block. *)
let test_tob_proposal_allocates_slices () =
  let t =
    Tob.create ~n:3 ~self:0 ~style:Tob.self_stabilizing ~batch_max:1_024 ~id_hint:4_096 ()
  in
  for a = 0 to 15 do
    let ops =
      Array.init 128 (fun j ->
          { Kv.id = (a * 128) + j; kind = Kv.Put; key = j; v1 = a; v2 = 0 })
    in
    ignore (Tob.deliver t ~now:0 ~src:1 (Tob.Fwd ops))
  done;
  let tag = Tob.Tag { len = 0; round = 0; cp = -1; cp_log = 0; kvh = 0; kv_d = 0 } in
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let outs = Tob.deliver t ~now:1 ~src:1 tag in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let words = minor1 -. minor0 and direct = major1 -. promoted1 -. (major0 -. promoted0) in
  if words > 400. then Alcotest.failf "entering the engine took %.0f minor words (> 400)" words;
  Alcotest.(check (float 0.)) "words allocated directly in the major heap" 0. direct;
  match proposals outs with
  | [ p ] ->
    check "the proposal is the first 1,024 pending ops" true
      (Array.map (fun (o : Kv.op) -> o.Kv.id) p = Array.init 1_024 Fun.id)
  | ps -> Alcotest.failf "%d proposals, expected one" (List.length ps)

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
          ignore (Tob.deliver t ~now:slot ~src:1 (Tob.Decide { slot; batch = Tob.batch [||] }))
        done;
        ignore (Tob.corrupt (Rng.create seed) t);
        ignore (Tob.submit t ~now:height [||]);
        check "content digest = maintained digest" true
          (Tob.content_digest t = Tob.log_digest t)
      done)
    [ 129; 257 ]

(* A replica's log grows only by its own engine's decision, a decision
   for exactly its next slot, or the reply to its own pull: nothing ahead
   of the log is held, so a message forged by a transient fault cannot
   commit later. Each row delivers one forged message carrying an op no
   client submitted, to a replica holding 10 slots, then [k] honest
   decisions for the slots that follow. *)
let test_tob_holds_nothing_ahead () =
  let forged = Tob.batch [| { Kv.id = 999_999; kind = Kv.Put; key = 1; v1 = 424_242; v2 = 0 } |] in
  let honest slot = Tob.batch [| { Kv.id = slot; kind = Kv.Put; key = slot; v1 = 0; v2 = 0 } |] in
  let decide_ahead k c = Tob.Decide { slot = c + k; batch = forged } in
  let unsolicited c = Tob.Pull_rep { from = c; entries = [| forged; honest (c + 1) |] } in
  List.iter
    (fun (name, k, msg) ->
      let t = Tob.create ~n:3 ~self:0 ~style:Tob.self_stabilizing ~batch_max:8 () in
      let decide slot = Tob.deliver t ~now:slot ~src:1 (Tob.Decide { slot; batch = honest slot }) in
      for slot = 0 to 9 do
        ignore (decide slot)
      done;
      let c = Tob.committed t and digest = Tob.log_digest t in
      check (name ^ ": no messages") true (Tob.deliver t ~now:c ~src:2 (msg c) = []);
      check_int (name ^ ": committed unchanged") c (Tob.committed t);
      check_int (name ^ ": log digest unchanged") digest (Tob.log_digest t);
      for slot = c to c + k - 1 do
        ignore (decide slot)
      done;
      check_int (name ^ ": only the honest decisions commit") (c + k) (Tob.committed t);
      for i = 0 to Tob.committed t - 1 do
        if Array.exists (fun (o : Kv.op) -> o.Kv.id = 999_999) (Tob.log_entry t i) then
          Alcotest.failf "%s: the forged op is in log slot %d" name i
      done)
    [
      ("Decide at committed + 1", 1, decide_ahead 1);
      ("Decide at committed + 150", 150, decide_ahead 150);
      ("Decide at committed + 1000", 1000, decide_ahead 1000);
      ("unsolicited Pull_rep from committed", 1, unsolicited);
    ]

(* Every recovery trigger runs the same episode: one [recoveries] step,
   the replay's [Applied] notes closed by one [Recovered] note, and one
   [Recover] event, both at the rebuilt height. Each site is driven by
   hand on a replica holding 64 slots: a guard mismatch after [corrupt],
   an audit mismatch after a [corrupt] the guard cannot see, a KV
   divergence reported by both peers under an agreeing log, and the
   adoption of the log both peers agree on. *)
let test_tob_one_recovery_episode_per_trigger () =
  let n = 3 and slots = 64 in
  let batch salt slot =
    Tob.batch
      [| { Kv.id = (salt * 1_000) + slot; kind = Kv.Put; key = slot; v1 = salt; v2 = 0 } |]
  in
  let replica salt =
    let obs, events = Test_obs.collecting () in
    let t = Tob.create ~obs ~n ~self:0 ~style:Tob.self_stabilizing ~batch_max:8 () in
    for slot = 0 to slots - 1 do
      ignore (Tob.deliver t ~now:slot ~src:1 (Tob.Decide { slot; batch = batch salt slot }))
    done;
    ignore (Tob.drain_notes t);
    let recovers () =
      List.filter_map
        (fun (e : Ftss_obs.Event.t) ->
          match e.body with
          | Ftss_obs.Event.Recover { pid; slots } -> Some (pid, slots)
          | _ -> None)
        (events ())
    in
    (t, recovers)
  in
  let no_suspects _ = false in
  let own_tag t =
    List.find_map
      (function Tob.Bcast (Tob.Tag _ as tag) -> Some tag | _ -> None)
      (Tob.tick t ~now:slots ~suspected:no_suspects)
    |> Option.get
  in
  (* [optional]: the call may also leave the replica alone, and must
     then note and emit nothing. Returns whether an episode ran. *)
  let episode ?(optional = false) name (t, recovers) call =
    let before = Tob.recoveries t and seen = List.length (recovers ()) in
    ignore (call ());
    let height = Tob.committed t in
    if optional && Tob.recoveries t = before then begin
      check (name ^ ": no episode, no note, no event") true
        (Tob.drain_notes t = [] && List.length (recovers ()) = seen);
      false
    end
    else begin
      check_int (name ^ ": one recovery") (before + 1) (Tob.recoveries t);
      (match List.rev (Tob.drain_notes t) with
      | Tob.Recovered { slots } :: replay ->
        check_int (name ^ ": note at the rebuilt height") height slots;
        check (name ^ ": only the replay precedes it") true
          (List.for_all (function Tob.Applied _ -> true | _ -> false) replay);
        check_int (name ^ ": whole log replayed") height (List.length replay)
      | _ -> Alcotest.failf "%s: the call's notes do not end in Recovered" name);
      check (name ^ ": one Recover event at that height") true
        (List.filteri (fun i _ -> i >= seen) (recovers ()) = [ (0, height) ]);
      check (name ^ ": honest digest") true (Tob.content_digest t = Tob.log_digest t);
      true
    end
  in
  (* Guard mismatch: a scramble the guard does not see (an engine field,
     say, with no engine) leaves the replica alone. *)
  let tripped = ref 0 in
  for seed = 0 to 19 do
    let ((t, _) as r) = replica 1 in
    ignore (Tob.corrupt (Rng.create seed) t);
    if
      episode ~optional:true (Printf.sprintf "guard (seed %d)" seed) r (fun () ->
          Tob.tick t ~now:slots ~suspected:no_suspects)
    then incr tripped
  done;
  check "some scramble trips the guard" true (!tripped > 0);
  (* Audit mismatch: a scramble the guard cannot see — a KV entry
     rewritten behind the incremental digest, or a blanked log slot — is
     caught by the cyclic audit, which re-derives the KV digest and walks
     the 64 slots in two windows: one episode within two audit intervals. *)
  let kv_seeds = ref 0 and blank_seeds = ref 0 in
  for seed = 0 to 59 do
    let ((t, _) as r) = replica 1 in
    let kv = Tob.kv_recomputed t and content = Tob.content_digest t in
    ignore (Tob.corrupt (Rng.create seed) t);
    ignore (Tob.submit t ~now:slots [||]);
    (* With the guard quiet, a changed table sits behind an unchanged
       incremental digest, and changed content behind an unchanged
       prefix digest. *)
    let kv_stale = Tob.kv_recomputed t <> kv
    and blanked = Tob.content_digest t <> content in
    if Tob.recoveries t = 0 && (kv_stale || blanked) then begin
      if kv_stale then incr kv_seeds;
      if blanked then incr blank_seeds;
      ignore
        (episode (Printf.sprintf "audit (seed %d)" seed) r (fun () ->
             for _ = 1 to 128 do
               ignore (Tob.tick t ~now:slots ~suspected:no_suspects)
             done));
    end
  done;
  check "some scramble hides a stale KV entry from the guard" true (!kv_seeds > 0);
  check "some scramble hides a blanked slot from the guard" true (!blank_seeds > 0);
  (* KV divergence: both peers agree on the log but not on the KV digest
     at the snapshot height. The repair clears the conflict, so the next
     tick does not repair again. *)
  let ((t, _) as r) = replica 1 in
  (match own_tag t with
  | Tob.Tag tag ->
    List.iter
      (fun src ->
        ignore (Tob.deliver t ~now:slots ~src (Tob.Tag { tag with kv_d = tag.kv_d + 1 })))
      [ 1; 2 ];
    check_int "no repair on delivery" 0 (Tob.recoveries t);
    check "kv conflict repaired" true
      (episode "kv conflict" r (fun () -> Tob.tick t ~now:slots ~suspected:no_suspects));
    ignore (Tob.tick t ~now:slots ~suspected:no_suspects);
    check_int "conflict cleared by the episode" 1 (Tob.recoveries t)
  | _ -> assert false);
  (* Pull adoption: both peers advertise another log at the checkpoint;
     the replica pulls it from one of them and adopts the reply. *)
  let ((t, _) as r) = replica 1 and other, _ = replica 2 in
  let other_tag = own_tag other in
  List.iter (fun src -> ignore (Tob.deliver t ~now:slots ~src other_tag)) [ 1; 2 ];
  let peer =
    List.find_map
      (function Tob.Send (p, Tob.Pull_req { from = 0 }) -> Some p | _ -> None)
      (Tob.tick t ~now:slots ~suspected:no_suspects)
    |> Option.get
  in
  check_int "no repair before the reply" 0 (Tob.recoveries t);
  check "log adopted" true
    (episode "pull adoption" r (fun () ->
         Tob.deliver t ~now:slots ~src:peer
           (Tob.Pull_rep { from = 0; entries = Array.init slots (batch 2) })));
  check "adopted the peers' log" true (Tob.content_digest t = Tob.content_digest other)

(* Commit, recovery, catch-up and state transfer chain the batches'
   cached digests; the content-hashing readers are the ground truth. One
   replica is driven through four steps — commits, [corrupt] plus the
   recovery it trips, an overlapping catch-up pull, and the adoption of a
   full pull — and after each, the maintained log digest must equal the
   content-recomputed one and every entry's cached digest must equal its
   ops' digest. A full pull identical to the held log changes nothing.
   Every pull is solicited, as a replica adopts no other reply: the
   catch-up pull overlaps because the replica commits its next slot by
   [Decide] between asking and the reply. *)
let test_tob_cached_digests_match_content () =
  let n = 3 and slots = 70 in
  let no_suspects _ = false in
  let batch salt slot =
    Tob.batch
      (Array.init
         (1 + (slot mod 3))
         (fun j ->
           { Kv.id = (salt * 100_000) + (slot * 4) + j; kind = Kv.Put; key = slot; v1 = salt; v2 = j }))
  in
  let replica salt =
    let t = Tob.create ~n ~self:0 ~style:Tob.self_stabilizing ~batch_max:8 () in
    for slot = 0 to slots - 1 do
      ignore (Tob.deliver t ~now:slot ~src:1 (Tob.Decide { slot; batch = batch salt slot }))
    done;
    t
  in
  (* The whole log, as a full pull ships it. *)
  let entries t =
    List.find_map
      (function Tob.Send (_, Tob.Pull_rep { entries; _ }) -> Some entries | _ -> None)
      (Tob.deliver t ~now:slots ~src:1 (Tob.Pull_req { from = 0 }))
    |> Option.value ~default:[||]
  in
  (* A fresh replica committing the shipped entries chains their cached
     digests, which must match the held log's content digest. *)
  let consistent name t =
    check (name ^ ": log digest = content digest") true
      (Tob.log_digest t = Tob.content_digest t);
    let held = entries t in
    check_int (name ^ ": whole log shipped") (Tob.committed t) (Array.length held);
    let fresh = Tob.create ~n ~self:0 ~style:Tob.self_stabilizing ~batch_max:8 () in
    Array.iteri
      (fun slot batch -> ignore (Tob.deliver fresh ~now:slot ~src:1 (Tob.Decide { slot; batch })))
      held;
    check (name ^ ": cached digests = content digests") true
      (Tob.log_digest fresh = Tob.content_digest t)
  in
  (* Both peers advertise [camp]'s checkpoint digest; the replica pulls
     the whole log from one of them. *)
  let solicit t camp =
    let tag =
      List.find_map
        (function Tob.Bcast (Tob.Tag _ as tag) -> Some tag | _ -> None)
        (Tob.tick camp ~now:slots ~suspected:no_suspects)
      |> Option.get
    in
    List.iter (fun src -> ignore (Tob.deliver t ~now:slots ~src tag)) [ 1; 2 ];
    List.find_map
      (function Tob.Send (p, Tob.Pull_req { from = 0 }) -> Some p | _ -> None)
      (Tob.tick t ~now:slots ~suspected:no_suspects)
    |> Option.get
  in
  (* Commits. *)
  consistent "commits" (replica 1);
  (* Corruption, on the first seed whose scramble trips the guard. *)
  let t =
    let rec tripped seed =
      if seed = 100 then Alcotest.fail "no scramble tripped the guard";
      let t = replica 1 in
      ignore (Tob.corrupt (Rng.create seed) t);
      ignore (Tob.submit t ~now:slots [||]);
      if Tob.recoveries t = 1 then t else tripped (seed + 1)
    in
    tripped 0
  in
  consistent "recovery" t;
  (* A catch-up reply overlapping the held log by one slot, long enough
     to carry the log past the camps' height and checkpoint. *)
  let c = Tob.committed t in
  check "catch-up starts past slot 0" true (c > 0);
  let reply = Array.init (slots + 10) (fun i -> batch 3 (c + i)) in
  let longer =
    Tob.Tag { len = c + slots + 10; round = -1; cp = -1; cp_log = 0; kvh = 0; kv_d = 0 }
  in
  List.iter (fun src -> ignore (Tob.deliver t ~now:slots ~src longer)) [ 1; 2 ];
  let peer =
    List.find_map
      (function Tob.Send (p, Tob.Pull_req { from }) when from = c -> Some p | _ -> None)
      (Tob.tick t ~now:slots ~suspected:no_suspects)
    |> Option.get
  in
  ignore (Tob.deliver t ~now:slots ~src:1 (Tob.Decide { slot = c; batch = reply.(0) }));
  check_int "the next slot committed first" (c + 1) (Tob.committed t);
  ignore (Tob.deliver t ~now:slots ~src:peer (Tob.Pull_rep { from = c; entries = reply }));
  check_int "catch-up extends the log" (c + slots + 10) (Tob.committed t);
  consistent "catch-up" t;
  (* Adoption of another camp's whole log. *)
  let other = replica 2 in
  let peer = solicit t other in
  let recoveries = Tob.recoveries t in
  ignore (Tob.deliver t ~now:slots ~src:peer (Tob.Pull_rep { from = 0; entries = entries other }));
  check_int "adoption recovers" (recoveries + 1) (Tob.recoveries t);
  check "adopted the other log" true (Tob.content_digest t = Tob.content_digest other);
  consistent "adoption" t;
  (* A full pull identical to the held log is a no-op. *)
  let peer = solicit t (replica 4) in
  let recoveries = Tob.recoveries t and digest = Tob.log_digest t in
  ignore (Tob.deliver t ~now:slots ~src:peer (Tob.Pull_rep { from = 0; entries = entries t }));
  check_int "identical pull: no recovery" recoveries (Tob.recoveries t);
  check_int "identical pull: log unchanged" digest (Tob.log_digest t);
  consistent "identical pull" t

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

let check_storm_recovery =
  Alcotest.(check (list (triple int (option int) (option int)))) "pinned storm recovery"

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
    (List.exists (fun (_, resumed, _) -> resumed <> None) r.Service.storm_recovery);
  (* [report_digest] covers neither field: pin both. *)
  check_int "pinned recoveries" 3 r.Service.recoveries;
  check_storm_recovery [ (900, Some 12, None); (1_400, Some 8, Some 242) ]
    r.Service.storm_recovery

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
  check_int "pinned digest" golden_digest (Service.report_digest r1);
  check_int "pinned recoveries" 1 r1.Service.recoveries;
  check_storm_recovery [ (800, Some 13, None) ] r1.Service.storm_recovery

(* The tower's detector is the Esfd layer: a traced storm run emits its
   suspect-set changes, tracing leaves the run as it was, and a monitor
   on the same hub counts the changes. *)
let test_service_detector_events () =
  let n = 4 in
  let wl = tiny_wl ~seed:13 ~ops:1_000 n in
  let params =
    {
      (Service.default_params ~n ~seed:21) with
      Service.faults = { Service.no_faults with Service.storms = [ (800, 2) ] };
    }
  in
  let obs, events = Test_obs.collecting () in
  let mon = Ftss_monitor.Monitor.create ~n Ftss_monitor.Monitor.no_budgets in
  Ftss_monitor.Monitor.attach mon obs;
  let traced = Service.run ~obs ~wl params in
  let count kind =
    List.length (List.filter (fun ev -> Ftss_obs.Event.kind ev = kind) (events ()))
  in
  check "suspect_add events" true (count "suspect_add" > 0);
  check "suspect_remove events" true (count "suspect_remove" > 0);
  check_int "tracing leaves the run as it was"
    (Service.report_digest (Service.run ~wl params))
    (Service.report_digest traced);
  let field k j = Option.get (Ftss_obs.Json.member k j) in
  let links = field "links" (Ftss_monitor.Monitor.dashboard_json mon) in
  check_int "monitor counts the adds" (count "suspect_add")
    (Option.get (Ftss_obs.Json.to_int_opt (field "suspect_adds" links)))

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
        Alcotest.test_case "kv hash pins" `Quick test_kv_hash_pins;
        Alcotest.test_case "kv ops allocate nothing" `Quick test_kv_ops_allocate_nothing;
        Alcotest.test_case "kv presized table matches default" `Quick
          test_kv_presized_matches_default;
        Alcotest.test_case "workload shape" `Quick test_workload_shape;
        Alcotest.test_case "workload determinism" `Quick test_workload_determinism;
        Alcotest.test_case "workload pinned digests" `Quick test_workload_pinned_digests;
        Alcotest.test_case "workload matches the per-op oracle" `Quick
          test_workload_matches_oracle;
        Alcotest.test_case "workload memory per op" `Quick test_workload_memory;
        Alcotest.test_case "mv consensus agreement" `Quick test_mv_agreement;
        QCheck_alcotest.to_alcotest prop_tob_fifo_matches_queue;
        Alcotest.test_case "tob FIFO property reaches every slice case" `Quick
          test_tob_fifo_slice_cases;
        Alcotest.test_case "tob proposal allocates O(slices) words" `Quick
          test_tob_proposal_allocates_slices;
        Alcotest.test_case "tob recovers any corrupted height" `Quick
          test_tob_corrupt_height_recovers;
        Alcotest.test_case "tob holds nothing ahead of its log" `Quick
          test_tob_holds_nothing_ahead;
        Alcotest.test_case "fault-free run converges" `Quick test_service_fault_free;
        Alcotest.test_case "faulted run converges (property)" `Quick
          test_service_converges_under_faults;
        Alcotest.test_case "baseline never repairs" `Quick
          test_service_baseline_has_no_repair;
        Alcotest.test_case "golden determinism" `Quick test_service_golden_determinism;
        Alcotest.test_case "detector events reach trace and monitor" `Quick
          test_service_detector_events;
        Alcotest.test_case "sharded runs are domain-count independent" `Quick
          test_service_sharded_domain_independent;
        Alcotest.test_case "tob: one recovery episode per trigger" `Quick
          test_tob_one_recovery_episode_per_trigger;
        Alcotest.test_case "tob: cached batch digests match content" `Quick
          test_tob_cached_digests_match_content;
      ] );
  ]
