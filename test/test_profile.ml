(* The span profiler (lib/profile).

   The unit cases pin the contracts the instrumented layers lean on: the
   closed phase registry names each phase once and fixes its recording
   strategy; disarmed lanes are inert (no spans,
   no totals, chained ticks flow through unchanged); nesting-aware
   self-time keeps every lane's phase sum at or under its wall time
   (Profile.check); the buffered span cap drops spans but never calls;
   coalesced phases flush their open window into exact totals; and the
   three export surfaces (Chrome-trace JSON, folded stacks, bench
   gauges) agree with the totals they are derived from. The domain pool
   the explorer, fuzzer and sharded runner share records onto the
   profiler, so its chunk contract is pinned here too. *)

open Ftss_obs
module P = Ftss_profile.Profile
module Pool = Ftss_profile.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Busy-wait so spans have a measurable, strictly positive width without
   sleeping the scheduler. *)
let spin ns =
  let t0 = P.now_ns () in
  while P.now_ns () - t0 < ns do
    ()
  done

(* --- phase registry --- *)

let test_phase_registry () =
  check_int "closed registry size" 14 P.Phase.count;
  check_int "all lists every phase" 14 (List.length P.Phase.all);
  let names = List.map P.Phase.name P.Phase.all in
  check "names are distinct" true
    (List.length (List.sort_uniq compare names) = P.Phase.count);
  (* The per-event hot paths coalesce into window slices; the
     millisecond-scale ones buffer one span per call. *)
  let t = P.create () in
  let l = P.lane t "svc.tower" in
  ignore (P.lap l P.Phase.sim_pop ~since:(P.now_ns ()));
  P.enter l P.Phase.svc_audit;
  ignore (P.leave l);
  let cats =
    match Json.member "traceEvents" (P.chrome_json t) with
    | Some (Json.List es) ->
      List.filter_map
        (fun e ->
          match (Json.member "name" e, Json.member "cat" e) with
          | Some (Json.String n), Some (Json.String c) -> Some (n, c)
          | _ -> None)
        es
    | _ -> Alcotest.fail "traceEvents missing"
  in
  check "sim_pop coalesces" true (List.assoc_opt "sim_pop" cats = Some "slice");
  check "svc_audit buffers" true (List.assoc_opt "svc_audit" cats = Some "span")

(* --- disarmed lanes are inert --- *)

let test_disarmed_noop () =
  let t = P.create ~enabled:false () in
  let l = P.lane t "off" in
  P.enter l P.Phase.svc_audit;
  check_int "leave returns 0 disarmed" 0 (P.leave l);
  check_int "lap returns since disarmed" 42 (P.lap l P.Phase.sim_pop ~since:42);
  P.enter_at l P.Phase.sim_deliver ~at:7;
  ignore (P.leave l);
  check "no totals" true (P.totals t = []);
  check "gauges carry only the drop counter" true
    (P.gauges t = [ ("profile_dropped_spans", 0.) ])

(* --- nesting-aware self time --- *)

let test_nesting_self_le_wall () =
  let t = P.create () in
  let l = P.lane t "svc.tower" in
  (* parent (svc_slot) containing two children (svc_integrity). *)
  P.enter l P.Phase.svc_slot;
  spin 200_000;
  P.enter l P.Phase.svc_integrity;
  spin 300_000;
  ignore (P.leave l);
  P.enter l P.Phase.svc_integrity;
  spin 300_000;
  ignore (P.leave l);
  spin 200_000;
  ignore (P.leave l);
  let tot = P.totals t in
  check_int "two phases" 2 (List.length tot);
  let self p =
    let pt = List.find (fun pt -> pt.P.pt_phase = p) tot in
    pt.P.pt_self_ns
  in
  let parent = self P.Phase.svc_slot and child = self P.Phase.svc_integrity in
  check "child self covers both spins" true (child >= 600_000);
  check "parent self excludes children" true (parent < P.wall_ns t - child + 1);
  check "self sums to at most wall" true (parent + child <= P.wall_ns t);
  check "check holds" true (P.check t = [])

(* --- coalesced window flush --- *)

let test_window_flush_exact_calls () =
  let t = P.create () in
  let l = P.lane t "shards.d0" in
  let n = 10_000 in
  let tick = ref (P.now_ns ()) in
  for _ = 1 to n do
    tick := P.lap l P.Phase.sim_pop ~since:!tick
  done;
  (* The window is still open (10k laps take well under the ~10 ms flush
     threshold); totals must flush it and report the exact count. *)
  match List.find_opt (fun pt -> pt.P.pt_phase = P.Phase.sim_pop) (P.totals t) with
  | None -> Alcotest.fail "sim_pop missing from totals"
  | Some pt ->
    check_int "exact calls through flush" n pt.P.pt_calls;
    check "laps accumulated time" true (pt.P.pt_self_ns > 0)

(* An armed enter/leave pair on a coalesced phase allocates nothing: any
   word allocated after [leave] reads [Gc.minor_words] would be charged
   to the enclosing span's self allocation. *)
let test_armed_pair_allocation_free () =
  let t = P.create () in
  let l = P.lane t "svc.tower" in
  let pairs n =
    for _ = 1 to n do
      P.enter l P.Phase.svc_slot;
      ignore (P.leave l)
    done
  in
  pairs 1_000;
  let before = Gc.minor_words () in
  pairs 10_000;
  let words = Gc.minor_words () -. before in
  check_int "minor words over 10k warm armed pairs" 0 (int_of_float words)

(* --- span-buffer cap --- *)

let test_buffer_cap_drops_spans_not_calls () =
  let t = P.create () in
  let l = P.lane t "fuzz" in
  (* 100 spans past the per-lane cap of 65536. *)
  let n = 65_536 + 100 in
  for _ = 1 to n do
    P.enter l P.Phase.fuzz_verify;
    ignore (P.leave l)
  done;
  (match List.find_opt (fun pt -> pt.P.pt_phase = P.Phase.fuzz_verify) (P.totals t) with
  | None -> Alcotest.fail "fuzz_verify missing from totals"
  | Some pt -> check_int "accumulators keep exact calls" n pt.P.pt_calls);
  match List.assoc_opt "profile_dropped_spans" (P.gauges t) with
  | Some d -> check_int "gauge mirrors drop counter" 100 (int_of_float d)
  | None -> Alcotest.fail "profile_dropped_spans gauge missing"

(* --- exports --- *)

(* A small two-lane workload exercising both recording strategies. *)
let exercised () =
  let t = P.create () in
  let a = P.lane t "svc.tower" in
  let b = P.lane t "explore.d0" in
  P.enter a P.Phase.svc_slot;
  spin 100_000;
  P.enter a P.Phase.svc_integrity;
  spin 100_000;
  ignore (P.leave a);
  ignore (P.leave a);
  let tick = ref (P.now_ns ()) in
  for _ = 1 to 100 do
    tick := P.lap b P.Phase.chunk_claim ~since:!tick
  done;
  P.enter b P.Phase.chunk_execute;
  spin 100_000;
  ignore (P.leave b);
  t

let test_chrome_json_round_trip () =
  let t = exercised () in
  let doc = P.chrome_json t in
  (* The export must survive its own serializer. *)
  let reparsed =
    match Json.of_string (Json.to_string doc) with
    | Ok j -> j
    | Error e -> Alcotest.failf "chrome JSON does not reparse: %s" e
  in
  let events =
    match Json.member "traceEvents" reparsed with
    | Some (Json.List es) -> es
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let field name e =
    match Json.member name e with
    | Some (Json.String s) -> Some s
    | _ -> None
  in
  let phs = List.filter_map (field "ph") events in
  check "has complete X events" true (List.mem "X" phs);
  check "has metadata events" true (List.mem "M" phs);
  (* Every exercised phase appears as at least one slice name. *)
  let names = List.filter_map (field "name") events in
  List.iter
    (fun p ->
      let n = P.Phase.name p in
      check (n ^ " present in trace") true (List.mem n names))
    [ P.Phase.svc_slot; P.Phase.svc_integrity; P.Phase.chunk_claim;
      P.Phase.chunk_execute ];
  (* Both track groups surface as process_name metadata. *)
  let meta_args =
    List.filter_map
      (fun e ->
        if field "ph" e = Some "M" && field "name" e = Some "process_name" then
          Json.member "args" e
        else None)
      events
  in
  let procs =
    List.filter_map
      (fun a ->
        match Json.member "name" a with
        | Some (Json.String s) -> Some s
        | _ -> None)
      meta_args
  in
  check "svc process row" true (List.mem "svc" procs);
  check "explore process row" true (List.mem "explore" procs)

let test_folded_matches_totals () =
  let t = exercised () in
  let lines = String.split_on_char '\n' (String.trim (P.folded t)) in
  check "folded non-empty" true (lines <> []);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "folded line lacks a count: %S" line
      | Some i ->
        let stack = String.sub line 0 i in
        let count =
          String.sub line (i + 1) (String.length line - i - 1)
        in
        check "count is numeric" true (int_of_string_opt count <> None);
        check "stack has lane;...;phase frames" true
          (String.contains stack ';'))
    lines;
  (* The nested phase folds under its parent. *)
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check "nested frame path present" true
    (List.exists (contains ~needle:"svc_slot;svc_integrity") lines)

let test_gauges_match_totals () =
  let t = exercised () in
  let gs = P.gauges t in
  List.iter
    (fun pt ->
      let n = P.Phase.name pt.P.pt_phase in
      (match List.assoc_opt (Printf.sprintf "profile_calls.%s" n) gs with
      | Some c -> check_int ("calls gauge " ^ n) pt.P.pt_calls (int_of_float c)
      | None -> Alcotest.failf "profile_calls.%s missing" n);
      match List.assoc_opt (Printf.sprintf "profile_self_ms.%s" n) gs with
      | Some ms ->
        check ("self gauge " ^ n) true
          (abs_float (ms -. (float_of_int pt.P.pt_self_ns /. 1e6)) < 1e-6)
      | None -> Alcotest.failf "profile_self_ms.%s missing" n)
    (P.totals t)

(* --- the domain pool --- *)

(* Every position is handed out exactly once, in chunks that depend on
   the length alone, to workers numbered below the resolved domain
   count; with a profiler, each chunk is one [chunk_execute] span. *)
let test_pool () =
  List.iter
    (fun len ->
      let chunk_sets =
        List.map
          (fun d ->
            let name = Printf.sprintf "len=%d d=%d" len d in
            let lock = Mutex.create () in
            let chunks = ref [] in
            let t = P.create () in
            Pool.run ~profile:t ~lane:"pool" ~domains:d len (fun ~domain ~first ~limit ->
                Mutex.protect lock (fun () -> chunks := (domain, first, limit) :: !chunks));
            List.iter
              (fun (domain, _, _) ->
                check (name ^ ": domain in range") true
                  (0 <= domain && domain < Pool.domains d))
              !chunks;
            let hits = Array.make len 0 in
            List.iter
              (fun (_, first, limit) ->
                for i = first to limit - 1 do
                  hits.(i) <- hits.(i) + 1
                done)
              !chunks;
            check (name ^ ": every position exactly once") true
              (Array.for_all (( = ) 1) hits);
            let executes =
              match
                List.find_opt (fun pt -> pt.P.pt_phase = P.Phase.chunk_execute) (P.totals t)
              with
              | Some pt -> pt.P.pt_calls
              | None -> 0
            in
            check_int (name ^ ": one chunk_execute per chunk") (List.length !chunks) executes;
            List.sort compare (List.map (fun (_, first, limit) -> (first, limit)) !chunks))
          [ 1; 2; 3 ]
      in
      check (Printf.sprintf "len=%d: same chunks at every domain count" len) true
        (List.for_all (( = ) (List.hd chunk_sets)) chunk_sets))
    [ 0; 1; 15; 16; 17; 1000 ];
  check_int "0 resolves to every core" (Pool.available ()) (Pool.domains 0);
  check_int "clamped to 64" 64 (Pool.domains 1000)

let suite =
  [
    ( "profile",
      [
        Alcotest.test_case "phase registry names and strategies" `Quick
          test_phase_registry;
        Alcotest.test_case "disarmed lanes are inert" `Quick
          test_disarmed_noop;
        Alcotest.test_case "nested self-times sum under wall" `Quick
          test_nesting_self_le_wall;
        Alcotest.test_case "coalesced window flushes exact calls" `Quick
          test_window_flush_exact_calls;
        Alcotest.test_case "armed coalesced pairs allocate nothing" `Quick
          test_armed_pair_allocation_free;
        Alcotest.test_case "span cap drops spans, never calls" `Quick
          test_buffer_cap_drops_spans_not_calls;
        Alcotest.test_case "chrome trace reparses with all phases" `Quick
          test_chrome_json_round_trip;
        Alcotest.test_case "folded stacks carry lane;phase frames" `Quick
          test_folded_matches_totals;
        Alcotest.test_case "gauges mirror totals" `Quick
          test_gauges_match_totals;
        Alcotest.test_case "pool hands out fixed chunks once each" `Quick test_pool;
      ] );
  ]
