(* Tests for the ftss_check model-checker: closed-form enumeration
   counts, index decoding, fault compilation, explorer determinism
   across domain counts, and the counterexamples [ftss check] writes:
   a violating case shrunk as a genome, and its replay file. *)

open Ftss_util
open Ftss_check
open Ftss_fuzz

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let to_alcotest = QCheck_alcotest.to_alcotest

let full n rounds f = { Schedule_enum.n; rounds; f; intervals = true; drops = true }

let corrupt_all (case : Schedule_enum.t) corrupt =
  List.init case.Schedule_enum.params.Schedule_enum.n (fun p -> (0, p, corrupt p))

let crash_only_params n rounds f =
  { Schedule_enum.n; rounds; f; intervals = false; drops = false }

let theorem3 ~inject =
  match Property.find ~name:"theorem3" ~inject with
  | Ok p -> p
  | Error msg -> failwith msg

(* --- Closed-form counts --- *)

let test_counts () =
  (* n=3, rounds=3, f=1: 3 crashes + 3*(3*4/2)=18 intervals +
     2*3*(3-1)=12 point drops = 33 behaviours per process;
     schedules = C(3,0) + C(3,1)*33 = 100; cases = 100 * 5. *)
  let p = full 3 3 1 in
  check_int "behaviours (3,3,1)" 33 (Schedule_enum.behaviors_per_process p);
  check_int "schedules (3,3,1)" 100 (Schedule_enum.count_schedules p);
  check_int "corruption classes" 5 (List.length (Schedule_enum.corruptions p));
  check_int "cases (3,3,1)" 500 (Schedule_enum.count p);
  (* Crash-only: 3 behaviours; 1 + 3*3 = 10 schedules; 50 cases. *)
  let p = crash_only_params 3 3 1 in
  check_int "crash-only behaviours" 3 (Schedule_enum.behaviors_per_process p);
  check_int "crash-only schedules" 10 (Schedule_enum.count_schedules p);
  check_int "crash-only cases" 50 (Schedule_enum.count p);
  (* n=4, rounds=2, f=2: 2 + 3*(2*3/2)=9 + 2*2*3=12 = 23 behaviours;
     schedules = 1 + 4*23 + C(4,2)*23^2 = 3267. *)
  let p = full 4 2 2 in
  check_int "behaviours (4,2,2)" 23 (Schedule_enum.behaviors_per_process p);
  check_int "schedules (4,2,2)" 3267 (Schedule_enum.count_schedules p);
  check_int "cases (4,2,2)" 16335 (Schedule_enum.count p)

let test_enumerate_matches_count () =
  List.iter
    (fun p ->
      check_int "enumerate length" (Schedule_enum.count p)
        (Array.length (Schedule_enum.enumerate p)))
    [ full 3 3 1; full 3 2 2; crash_only_params 4 3 2 ]

let test_cases_distinct_and_within_budget () =
  let p = full 3 3 1 in
  let cases = Schedule_enum.enumerate p in
  let seen = Hashtbl.create (Array.length cases) in
  Array.iter
    (fun (c : Schedule_enum.t) ->
      Hashtbl.replace seen c ();
      check "budget" true (List.length c.Schedule_enum.behaviors <= p.Schedule_enum.f);
      let pids = List.map fst c.Schedule_enum.behaviors in
      check "pids ascending" true (List.sort_uniq compare pids = pids))
    cases;
  check_int "all cases structurally distinct" (Array.length cases) (Hashtbl.length seen)

let test_get_deterministic () =
  let p = full 4 2 2 in
  for i = 0 to Schedule_enum.count p - 1 do
    if Schedule_enum.get p i <> Schedule_enum.get p i then
      Alcotest.failf "get %d not deterministic" i
  done

let test_to_faults_budget () =
  let p = full 3 3 1 in
  Array.iter
    (fun c ->
      let faults = Schedule_enum.to_faults c in
      check "declared faulty within budget" true
        (Pidset.cardinal (Ftss_sync.Faults.faulty faults) <= p.Schedule_enum.f))
    (Schedule_enum.enumerate p)

let test_corrupt_int_classes () =
  let n = 4 in
  let pids = Pid.all n in
  check_int "clean is identity" 7 (Schedule_enum.corrupt_int Schedule_enum.Clean 2 7);
  List.iter
    (fun q -> check_int "zero" 0 (Schedule_enum.corrupt_int Schedule_enum.Zero q 7))
    pids;
  let distinct = List.map (fun q -> Schedule_enum.corrupt_int Schedule_enum.Distinct q 7) pids in
  check_int "distinct values pairwise distinct" n
    (List.length (List.sort_uniq compare distinct))

(* --- The decoder against the per-index decoder it replaced --- *)

(* The original [get]: every call revalidates, recounts, and rebuilds the
   corruption list, binomials and powers, and decodes each behaviour from
   its digit arithmetically. Kept here as the differential oracle for the
   shared-context decoder. *)
module Oracle = struct
  open Schedule_enum

  let binomial n k =
    if k < 0 || k > n then 0
    else begin
      let k = min k (n - k) in
      let acc = ref 1 in
      for i = 1 to k do
        acc := !acc * (n - k + i) / i
      done;
      !acc
    end

  let pow base e =
    let acc = ref 1 in
    for _ = 1 to e do
      acc := !acc * base
    done;
    !acc

  let intervals_per_kind rounds = rounds * (rounds + 1) / 2

  let interval_of_index rounds j =
    let rec skip a j =
      let here = rounds - a + 1 in
      if j < here then (a, a + j) else skip (a + 1) (j - here)
    in
    skip 1 j

  let other_of_index ~pid d = if d < pid then d else d + 1

  let behavior_of_index params ~pid i =
    let { rounds; n; intervals; drops; _ } = params in
    if i < rounds then Crash (i + 1)
    else begin
      let i = i - rounds in
      let per_kind = intervals_per_kind rounds in
      if intervals && i < 3 * per_kind then begin
        let a, b = interval_of_index rounds (i mod per_kind) in
        match i / per_kind with 0 -> Mute (a, b) | 1 -> Deaf (a, b) | _ -> Isolate (a, b)
      end
      else begin
        let i = if intervals then i - (3 * per_kind) else i in
        let per_dir = rounds * (n - 1) in
        if not (drops && i < 2 * per_dir) then invalid_arg "oracle: behaviour index";
        let dir = i / per_dir and j = i mod per_dir in
        let round = (j / (n - 1)) + 1 in
        let other = other_of_index ~pid (j mod (n - 1)) in
        if dir = 0 then Send_drop (round, other) else Recv_drop (round, other)
      end
    end

  let rec unrank_subset ~n k rank start =
    if k = 0 then []
    else
      let rec pick e rank =
        let with_e = binomial (n - e - 1) (k - 1) in
        if rank < with_e then e :: unrank_subset ~n (k - 1) rank (e + 1)
        else pick (e + 1) (rank - with_e)
      in
      pick start rank

  let schedule_of_index params idx =
    let b = behaviors_per_process params in
    let rec locate k idx =
      let block = binomial params.n k * pow b k in
      if idx < block then (k, idx) else locate (k + 1) (idx - block)
    in
    let k, idx = locate 0 idx in
    if k = 0 then []
    else begin
      let assignments = pow b k in
      let subset = unrank_subset ~n:params.n k (idx / assignments) 0 in
      let assign = idx mod assignments in
      List.mapi
        (fun j pid ->
          let digit = assign / pow b (k - 1 - j) mod b in
          (pid, behavior_of_index params ~pid digit))
        subset
    end

  let get params i =
    validate params;
    let ncorr = List.length (corruptions params) in
    let total = count params in
    if i < 0 || i >= total then invalid_arg "oracle: index";
    {
      params;
      behaviors = schedule_of_index params (i / ncorr);
      corruption = List.nth (corruptions params) (i mod ncorr);
    }
end

(* n 2..5, every f < n, rounds 1..4, each catalogue shape, plus a wide
   system. The spaces up to [full_limit] cases (190 of the 224 grid
   points, and n=200) are enumerated and compared index by index; the
   larger ones (up to 489M cases) are compared through [get] alone, at
   the first and last index of every fault-count block and at a stride
   through the space. *)
let differential_grid =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun f ->
          List.concat_map
            (fun rounds ->
              List.concat_map
                (fun intervals ->
                  List.map
                    (fun drops -> { Schedule_enum.n; rounds; f; intervals; drops })
                    [ false; true ])
                [ false; true ])
            [ 1; 2; 3; 4 ])
        (List.init n Fun.id))
    [ 2; 3; 4; 5 ]
  @ [ full 200 2 1 ]

let full_limit = 50_000

let test_decoder_matches_oracle () =
  List.iter
    (fun (p : Schedule_enum.params) ->
      let total = Schedule_enum.count p in
      let label =
        Printf.sprintf "n=%d r=%d f=%d intervals=%b drops=%b" p.n p.rounds p.f p.intervals
          p.drops
      in
      let agree i case =
        if case <> Oracle.get p i then Alcotest.failf "%s: case %d <> oracle" label i
      in
      if total <= full_limit || p.n = 200 then begin
        let cases = Schedule_enum.enumerate p in
        check_int (label ^ ": length") total (Array.length cases);
        Array.iteri
          (fun i case ->
            agree i case;
            if case <> Schedule_enum.get p i then
              Alcotest.failf "%s: enumerate.(%d) <> get" label i)
          cases
      end
      else begin
        let ncorr = List.length (Schedule_enum.corruptions p) in
        let b = Schedule_enum.behaviors_per_process p in
        let edges = ref [] and start = ref 0 and block = ref 1 in
        for k = 0 to p.f do
          if k > 0 then block := !block * b * (p.n - k + 1) / k;
          edges := (!start * ncorr) :: (((!start + !block) * ncorr) - 1) :: !edges;
          start := !start + !block
        done;
        let stride = (total / 2_000) + 1 in
        List.iter (fun i -> agree i (Schedule_enum.get p i)) !edges;
        for j = 0 to (total - 1) / stride do
          agree (j * stride) (Schedule_enum.get p (j * stride))
        done
      end;
      List.iter
        (fun i ->
          match Schedule_enum.get p i with
          | _ -> Alcotest.failf "%s: get %d did not raise" label i
          | exception Invalid_argument msg ->
            Alcotest.(check string) (label ^ ": out-of-range message")
              (Printf.sprintf "Schedule_enum.get: index %d outside 0..%d" i (total - 1))
              msg)
        [ -1; total; total + 7 ])
    differential_grid;
  Alcotest.check_raises "invalid params still rejected by get"
    (Invalid_argument "Schedule_enum: f outside 0..n-1")
    (fun () -> ignore (Schedule_enum.get (full 3 2 3) 0));
  Alcotest.check_raises "invalid params still rejected by enumerate"
    (Invalid_argument "Schedule_enum: rounds < 1")
    (fun () -> ignore (Schedule_enum.enumerate (full 3 0 1)))

(* --- Explorer: determinism across domain counts --- *)

let test_explore_deterministic_across_domains () =
  let p = full 3 3 1 in
  let cases = Schedule_enum.enumerate p in
  let prop = theorem3 ~inject:"frozen-exchange" in
  let s1, r1 = Explore.run ~domains:1 prop cases in
  let s2, r2 = Explore.run ~domains:2 prop cases in
  check_int "same distinct" s1.Explore.distinct s2.Explore.distinct;
  check "same violations" true (s1.Explore.violations = s2.Explore.violations);
  check "same fingerprints" true (r1 = r2);
  check_int "dedup accounting" s1.Explore.cases
    (s1.Explore.distinct + s1.Explore.dedup_hits)

(* A finished sweep keeps one int per case: after a full major
   collection, holding what [Explore.run] returns for the 46,415-case
   frozen-exchange sweep grows the live heap by at most 2 words per case.
   The sweep's pinned counts ride along. *)
let test_explore_retains_one_word_per_case () =
  let prop = theorem3 ~inject:"frozen-exchange" in
  let cases = Schedule_enum.enumerate (full 4 3 2) in
  let live_words () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let before = live_words () in
  let stats, fingerprints = Explore.run ~domains:1 prop cases in
  let retained = live_words () - before in
  check_int "cases" 46_415 stats.Explore.cases;
  check_int "violations" 6_663 (List.length stats.Explore.violations);
  check_int "distinct" 44_105 stats.Explore.distinct;
  check_int "dedup hits" 2_310 stats.Explore.dedup_hits;
  if retained > 2 * stats.Explore.cases then
    Alcotest.failf "sweep retains %d words over %d cases" retained stats.Explore.cases;
  (* What the baseline measured stays reachable until here. *)
  ignore (Sys.opaque_identity (prop, cases, fingerprints))

let test_theorem3_holds_exhaustively () =
  let cases = Schedule_enum.enumerate (full 3 2 1) in
  let stats, _ = Explore.run (theorem3 ~inject:"none") cases in
  check "no violations" true (stats.Explore.violations = [])

(* --- Shrinking: a catalogue counterexample shrinks as a genome --- *)

let fails prop case = not (Lazy.force (prop.Property.run case).Property.verdict).Property.ok

let failing_cases prop cases = Array.to_list cases |> List.filter (fails prop)

let test_shrink_reaches_minimum () =
  let prop = theorem3 ~inject:"frozen-exchange" in
  let cases = Schedule_enum.enumerate (full 3 3 1) in
  match failing_cases prop cases with
  | [] -> Alcotest.fail "frozen-exchange injection found no violations"
  | failures ->
    List.iter
      (fun case ->
        let g = Mutate.of_schedule case in
        let small = Fuzz.shrink_genome prop g in
        check "shrunk still fails" true (Fuzz.genome_fails prop small);
        check "shrunk no larger" true (Mutate.size small <= Mutate.size g);
        (* Frozen exchange only breaks reconciliation of distinct round
           variables, so every counterexample bottoms out at the pure
           systemic failure: no faulty process, one corrupted pid. *)
        check "minimal schedule" true
          (Pidset.is_empty small.Mutate.faulty && small.Mutate.drops = []);
        check_int "minimal corruption" 1 (List.length small.Mutate.corrupt))
      failures

(* The shrinker [ftss check] runs offers only strictly smaller
   candidates: against a property that fails on the injected case alone,
   it tries every reduction once, accepts none, and returns the genome
   unchanged. *)
let test_candidates_strictly_smaller () =
  let g =
    Mutate.of_schedule
      {
        Schedule_enum.params = full 3 3 1;
        behaviors = [ (1, Schedule_enum.Isolate (1, 3)) ];
        corruption = Schedule_enum.Max;
      }
  in
  let key (a : Property.adversary) =
    (a.Property.adv_faults, List.map a.Property.adv_corrupt (Pid.all a.Property.adv_n))
  in
  let target = key (Mutate.to_adversary g) in
  let offered = ref [] in
  let judge ?obs:_ adv =
    let k = key adv in
    if k <> target then offered := k :: !offered;
    let ok = k <> target in
    {
      Property.fingerprint = 0;
      states = 0;
      signature = lazy [||];
      verdict = lazy { Property.ok; detail = (fun () -> "") };
    }
  in
  let property = { (theorem3 ~inject:"none") with Property.run_adv = judge } in
  check "no candidate still fails" true (Mutate.equal (Fuzz.shrink_genome property g) g);
  let candidates = Mutate.reductions g in
  check_int "every candidate tried once" (List.length candidates) (List.length !offered);
  List.iter
    (fun c ->
      check "candidate strictly smaller" true (Mutate.size c < Mutate.size g);
      check "candidate was offered" true
        (List.mem (key (Mutate.to_adversary c)) !offered))
    candidates

(* --- Replay files --- *)

(* Parse a counterexample document the way [ftss replay] reads one: from
   a file. *)
let parse_replay text =
  let path = Filename.temp_file "ftss_replay" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let parsed = Replay.load path in
  Sys.remove path;
  parsed

let roundtrip t =
  match parse_replay (Replay.to_string t) with
  | Ok t' -> check "replay roundtrip" true (t = t')
  | Error msg -> Alcotest.failf "replay parse failed: %s" msg

(* Every behaviour kind and corruption class, injected: the genomes
   carry crashes, drop rows, point drops, bare blames and values. *)
let test_replay_roundtrip_all_behaviours () =
  let params = full 4 3 2 in
  let mk behaviors corruption =
    { Replay.property = "theorem3"; inject = "none";
      genome = Mutate.of_schedule { Schedule_enum.params; behaviors; corruption } }
  in
  List.iter roundtrip
    [
      mk [] Schedule_enum.Clean;
      mk [ (0, Schedule_enum.Crash 2) ] Schedule_enum.Zero;
      mk [ (1, Schedule_enum.Mute (1, 3)) ] Schedule_enum.Max;
      mk [ (2, Schedule_enum.Deaf (2, 2)) ] (Schedule_enum.Parked 2);
      mk [ (3, Schedule_enum.Isolate (1, 2)) ] Schedule_enum.Distinct;
      mk
        [ (0, Schedule_enum.Send_drop (3, 1)); (2, Schedule_enum.Recv_drop (1, 3)) ]
        Schedule_enum.Distinct;
    ]

(* Every malformed counterexample file is rejected for its own reason:
   each case breaks one thing in an otherwise valid document, and the
   error must name that thing. *)
let test_replay_rejects_malformed () =
  let doc ?(format = {|"ftss-counterexample"|}) ?(version = "3") ?(property = "theorem3")
      ?(inject = "none") ?(n = "3") ?(faulty = "[0]") ?(crashes = "[]") ?(drops = "[]")
      ?(genome = true) () =
    Printf.sprintf {|{"format":%s,"version":%s,"property":"%s","inject":"%s"%s}|} format
      version property inject
      (if genome then
         Printf.sprintf
           {|,"genome":{"format":"ftss-genome","version":2,"params":{"n":%s,"rounds":3,"f":1,"allow_drops":true},"faulty":%s,"crashes":%s,"drops":%s,"corrupt":[]}|}
           n faulty crashes drops
       else "")
  in
  let contains ~affix s =
    let n = String.length affix and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
    at 0
  in
  (match parse_replay (doc ~drops:"[[1,0,1]]" ()) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "base document rejected: %s" m);
  List.iter
    (fun (label, text, reason) ->
      match parse_replay text with
      | Ok _ -> Alcotest.failf "%s: accepted" label
      | Error m ->
        if not (contains ~affix:reason m) then
          Alcotest.failf "%s: error %S does not name %S" label m reason)
    [
      ("unknown property", doc ~property:"theoremX" (), "unknown property/injection theoremX/none");
      ("unknown injection", doc ~inject:"bogus" (), "unknown property/injection theorem3/bogus");
      ("missing field", doc ~genome:false (), {|missing field "genome"|});
      ("mistyped field", doc ~n:{|"3"|} (), {|field "n" has the wrong type|});
      ("mistyped genome entry", doc ~crashes:{|[[0,"1"]]|} (), {|field "crashes" has the wrong type|});
      ("pid out of range", doc ~faulty:"[7]" (), "faulty pid 7 outside 0..2");
      ("round out of range", doc ~crashes:"[[0,9]]" (), "crash round 9 outside 1..3");
      ("fault budget exceeded", doc ~faulty:"[0,1]" (), "2 declared faulty, budget f=1");
      ( "drops for a crash-only property",
        doc ~property:"theorem5" ~drops:"[[1,0,1]]" (),
        "theorem5/none runs crash schedules only; the genome drops 1 message" );
      ("trailing input", doc () ^ " {}", "trailing input after document");
      ("wrong format", doc ~format:{|"ftss-genome"|} (), "is not ftss-counterexample");
      ("unknown version", doc ~version:"4" (), "unsupported version 4");
      ( "version-2 catalogue-case file",
        {|{"format":"ftss-counterexample","version":2,"property":"theorem3","inject":"none","params":{"n":3,"rounds":3,"f":1,"intervals":true,"drops":true},"corruption":"clean","schedule":[]}|},
        "a version-2 counterexample, a format no longer read; re-run `ftss check --out`" );
      ( "version-1 S-expression file",
        "(ftss-counterexample (version 1) (property theorem3) (inject none)\n\
        \ (params (n 3) (rounds 3) (f 1) (intervals true) (drops true))\n\
        \ (corruption clean) (schedule))\n",
        "a version-1 counterexample, a format no longer read; re-run `ftss check --out`" );
    ]

let test_replay_reproduces () =
  let prop = theorem3 ~inject:"frozen-exchange" in
  let cases = Schedule_enum.enumerate (full 3 3 1) in
  match failing_cases prop cases with
  | [] -> Alcotest.fail "no violation to replay"
  | case :: _ ->
    let t =
      { Replay.property = "theorem3"; inject = "frozen-exchange";
        genome = Fuzz.shrink_genome prop (Mutate.of_schedule case) }
    in
    (match parse_replay (Replay.to_string t) with
    | Error msg -> Alcotest.failf "parse: %s" msg
    | Ok t' -> (
      match Replay.replay t' with
      | Ok v -> check "counterexample reproduces" false v.Property.ok
      | Error msg -> Alcotest.failf "replay: %s" msg))

(* A traced replay records one [Corrupt] per corrupted pid of the
   genome, and none for a clean one: the theorem-3 counterexample the
   CLI's check writes, and a one-pid theorem-5 genome. *)
let test_traced_replay_corrupts_only_genome_pids () =
  let doc property corrupt =
    Printf.sprintf
      {|{"format":"ftss-counterexample","version":3,%s,"genome":{"format":"ftss-genome","version":2,"params":{"n":3,"rounds":3,"f":1,"allow_drops":true},"faulty":[],"crashes":[],"drops":[],"corrupt":%s}}|}
      property corrupt
  in
  List.iter
    (fun (label, text, expected) ->
      let evs = ref [] in
      let obs = Ftss_obs.Obs.create () in
      Ftss_obs.Obs.add_sink obs
        (Ftss_obs.Sink.make ~emit:(fun ev -> evs := ev :: !evs) ~close:ignore);
      (match Result.bind (parse_replay text) (Replay.replay ~obs) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" label msg);
      let corrupted =
        List.filter_map
          (fun (ev : Ftss_obs.Event.t) ->
            match ev.Ftss_obs.Event.body with
            | Ftss_obs.Event.Corrupt { pid } -> Some (ev.Ftss_obs.Event.time, pid)
            | _ -> None)
          (List.rev !evs)
      in
      Alcotest.(check (list (pair int int))) label expected corrupted)
    [
      ( "theorem3 corrupt(p2=292)",
        doc {|"property":"theorem3","inject":"frozen-exchange"|} "[[2,292]]",
        [ (0, 2) ] );
      ("theorem5 corrupt(p0=5)", doc {|"property":"theorem5","inject":"none"|} "[[0,5]]", [ (0, 0) ]);
      ("theorem5 clean", doc {|"property":"theorem5","inject":"none"|} "[]", []);
    ]

(* --- Golden determinism: explorer verdicts pinned to the exact
   violation sets and dedup counts the pre-overhaul Marshal-digest
   fingerprints produced. --- *)

let md5 s = Digest.to_hex (Digest.string s)

let test_golden_explorer_verdicts () =
  let prop = theorem3 ~inject:"frozen-exchange" in
  let stats, _ = Explore.run ~domains:1 prop (Schedule_enum.enumerate (full 3 3 1)) in
  check_int "frozen-exchange violations" 82 (List.length stats.Explore.violations);
  Alcotest.(check string) "violation indices digest"
    "a6103c173e5435d3a49ff3fb4a50607e"
    (md5 (String.concat "," (List.map string_of_int stats.Explore.violations)));
  check_int "frozen-exchange distinct traces" 500 stats.Explore.distinct;
  let stats, _ =
    Explore.run ~domains:1 (theorem3 ~inject:"none") (Schedule_enum.enumerate (full 3 2 1))
  in
  check_int "t3 cases" 290 stats.Explore.cases;
  check_int "t3 distinct" 290 stats.Explore.distinct;
  check_int "t3 violations" 0 (List.length stats.Explore.violations);
  let theorem4 =
    match Property.find ~name:"theorem4" ~inject:"none" with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  let stats, _ = Explore.run ~domains:1 theorem4 (Schedule_enum.enumerate (full 3 4 1)) in
  check_int "t4 cases" 755 stats.Explore.cases;
  check_int "t4 distinct" 755 stats.Explore.distinct;
  check_int "t4 violations" 0 (List.length stats.Explore.violations)

(* The golden t4 sweep above (r=4) is vacuous: the coterie changes at
   round 1, so a Σ⁺ obligation needs a stable window longer than the
   2·(f+2) bound, which no r <= 7 schedule leaves. At r=8 most cases
   carry one, so the zero-violation verdict is a real check of
   Theorem 4. *)
let test_theorem4_exhaustive_with_obligations () =
  let open Ftss_core in
  let params = full 3 8 1 in
  let cases = Schedule_enum.enumerate params in
  let theorem4 =
    match Property.find ~name:"theorem4" ~inject:"none" with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  let stats, _ = Explore.run ~domains:1 theorem4 cases in
  check_int "t4 r=8 cases" 2225 stats.Explore.cases;
  check_int "t4 r=8 violations" 0 (List.length stats.Explore.violations);
  let pi = Ftss_protocols.Omission_consensus.make ~n:3 ~f:1 ~propose:(fun p -> 50 + p) in
  let bound = Compiler.stabilization_bound pi in
  let compiled = Compiler.compile ~n:3 pi in
  let obligated (case : Schedule_enum.t) =
    let corrupt p (st : _ Compiler.state) =
      {
        st with
        Compiler.c = Schedule_enum.corrupt_int case.Schedule_enum.corruption p st.Compiler.c;
      }
    in
    let trace =
      Ftss_sync.Runner.run ~corrupt_at:(corrupt_all case corrupt)
        ~faults:(Schedule_enum.to_faults case) ~rounds:params.Schedule_enum.rounds compiled
    in
    List.exists (fun (x, y) -> x + bound + 1 <= y) (Solve.stable_windows trace)
  in
  let carrying = Array.fold_left (fun acc c -> if obligated c then acc + 1 else acc) 0 cases in
  check_int "cases carrying a Σ⁺ obligation" 1985 carrying

(* --- Canonicalization under pid permutation: the orbit representative
   is well-defined (idempotent, invariant under relabelling the input)
   and the canonical explorer reproduces the uncanonical verdicts
   exactly over the golden corpus. --- *)

(* The n! permutations of {0..n-1}, small n only. *)
let all_permutations n =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun r -> x :: r) (perms (List.filter (( <> ) x) l)))
        l
  in
  perms (List.init n Fun.id)

(* Relabel every pid a case mentions through [perm], re-sorting the
   behaviours into owner order; and the pids a case mentions, ascending:
   behaviour owners plus the peers of point drops. *)
let relabel perm (case : Schedule_enum.t) =
  let behaviors =
    List.map
      (fun (p, b) ->
        ( perm p,
          match b with
          | Schedule_enum.Send_drop (r, q) -> Schedule_enum.Send_drop (r, perm q)
          | Schedule_enum.Recv_drop (r, q) -> Schedule_enum.Recv_drop (r, perm q)
          | b -> b ))
      case.Schedule_enum.behaviors
  in
  { case with Schedule_enum.behaviors = List.sort compare behaviors }

let mentioned (case : Schedule_enum.t) =
  List.sort_uniq compare
    (List.concat_map
       (fun (p, b) ->
         match b with
         | Schedule_enum.Send_drop (_, q) | Schedule_enum.Recv_drop (_, q) -> [ p; q ]
         | _ -> [ p ])
       case.Schedule_enum.behaviors)

let test_canonical_well_defined () =
  let params = full 3 3 1 in
  let cases = Schedule_enum.enumerate params in
  let perms =
    List.map (fun l -> let a = Array.of_list l in fun p -> a.(p)) (all_permutations 3)
  in
  Array.iter
    (fun case ->
      let c = Schedule_enum.canonical case in
      (* Idempotent. *)
      check "canonical is idempotent" true (Schedule_enum.canonical c = c);
      (* Params and corruption class are untouched (corruption classes
         are permutation-invariant as classes). *)
      check "params preserved" true (c.Schedule_enum.params = params);
      check "corruption preserved" true
        (c.Schedule_enum.corruption = case.Schedule_enum.corruption);
      (* Invariant across the whole orbit: every relabelling of the case
         canonicalizes to the same representative. *)
      List.iter
        (fun perm ->
          check "orbit members share their canonical form" true
            (Schedule_enum.canonical (relabel perm case) = c))
        perms;
      (* The representative's support is packed onto an initial segment. *)
      let s = mentioned c in
      check "support packed onto 0..m-1" true (s = List.init (List.length s) Fun.id))
    cases;
  (* Above 8 support pids the form is only the rank-relabelled case: two
     members of one orbit of theorem 5's n=10 r=2 f=9 space, nine pids
     crashing, one of them a round early, keep different forms. *)
  let early first =
    {
      Schedule_enum.params = crash_only_params 10 2 9;
      behaviors = List.init 9 (fun p -> (p, Schedule_enum.Crash (if p = first then 1 else 2)));
      corruption = Schedule_enum.Clean;
    }
  in
  let swap p = if p = 0 then 1 else if p = 1 then 0 else p in
  check "a relabelling of the other" true (relabel swap (early 0) = early 1);
  check "nine support pids: orbit members keep different forms" true
    (Schedule_enum.canonical (early 0) <> Schedule_enum.canonical (early 1))

let test_support_and_permute () =
  let case =
    {
      Schedule_enum.params = full 5 3 2;
      behaviors =
        [ (1, Schedule_enum.Recv_drop (2, 4)); (3, Schedule_enum.Crash 1) ];
      corruption = Schedule_enum.Clean;
    }
  in
  (* The orbit representative packs the support — owners plus drop
     peers, here {1, 3, 4} — onto {0, 1, 2}, keeps each behaviour, and
     re-sorts them by owner; swapping the two owners changes nothing. *)
  let c = Schedule_enum.canonical case in
  Alcotest.(check (list int)) "support packed" [ 0; 1; 2 ] (mentioned c);
  check "behaviours kept, re-sorted by owner" true
    (match c.Schedule_enum.behaviors with
    | [ (p, b); (q, b') ] -> (
      p < q
      &&
      match (b, b') with
      | Schedule_enum.Crash 1, Schedule_enum.Recv_drop (2, r) -> r <> q
      | Schedule_enum.Recv_drop (2, r), Schedule_enum.Crash 1 -> r <> p
      | _ -> false)
    | _ -> false);
  let swapped =
    {
      case with
      Schedule_enum.behaviors =
        [ (1, Schedule_enum.Crash 1); (3, Schedule_enum.Recv_drop (2, 4)) ];
    }
  in
  check "relabelled owners share the representative" true
    (Schedule_enum.canonical swapped = c)

let test_golden_canonical_equivalence () =
  (* The acceptance gate: over the 500-case golden corpus the canonical
     explorer must reproduce the uncanonical verdicts exactly — same 82
     violations at the same indices — while executing strictly fewer
     runs. *)
  let prop = theorem3 ~inject:"frozen-exchange" in
  let cases = Schedule_enum.enumerate (full 3 3 1) in
  let stats, fingerprints = Explore.run ~domains:1 prop cases in
  let cstats, cfingerprints = Explore.run ~domains:1 ~canonical:true prop cases in
  check_int "same corpus size" stats.Explore.cases cstats.Explore.cases;
  Alcotest.(check (list int)) "identical violation indices"
    stats.Explore.violations cstats.Explore.violations;
  Alcotest.(check string) "violation indices digest"
    "a6103c173e5435d3a49ff3fb4a50607e"
    (md5 (String.concat "," (List.map string_of_int cstats.Explore.violations)));
  (* Every orbit member carries the fingerprint of its representative,
     the orbit's first member in the array. *)
  let first = Hashtbl.create 256 in
  Array.iteri
    (fun i c ->
      let key = Schedule_enum.canonical c in
      if not (Hashtbl.mem first key) then Hashtbl.add first key i;
      check_int "scattered fingerprint" fingerprints.(Hashtbl.find first key)
        cfingerprints.(i))
    cases;
  (* The collapse is real and pinned: 500 cases fall into 140 orbits. *)
  check_int "uncanonical executes every case" 500 stats.Explore.orbits;
  check_int "orbit count" 140 cstats.Explore.orbits;
  check "reduction factor > 1" true (Explore.symmetry_reduction cstats > 1.);
  (* theorem4 breaks pid symmetry (propose p = 50 + p), so its verdicts
     must come from the full enumeration — document by construction that
     canonical mode is an opt-in for symmetric properties only. *)
  ()

(* --- The content hash partitions executions exactly as the structural
   Marshal digest it replaced: over a corpus of runner executions, two
   traces share a [Trace.hash] iff their marshalled representations are
   byte-identical. One direction is the generator argument (trace.mli);
   the other is collision-freedom on the corpus. --- *)

let hash_partition_matches_marshal traces =
  let digest_of_hash = Hashtbl.create 256 in
  List.iter
    (fun trace ->
      let digest = Digest.string (Marshal.to_string trace []) in
      let h = Ftss_sync.Trace.hash trace in
      match Hashtbl.find_opt digest_of_hash h with
      | None -> Hashtbl.add digest_of_hash h digest
      | Some d ->
        Alcotest.(check string) "equal hashes imply identical executions" d digest)
    traces;
  let digests = Hashtbl.fold (fun _ d acc -> d :: acc) digest_of_hash [] in
  check_int "identical executions imply equal hashes"
    (Hashtbl.length digest_of_hash)
    (List.length (List.sort_uniq compare digests))

let test_hash_partition_over_adversary_corpus () =
  let params = full 3 3 1 in
  let traces =
    Array.to_list (Schedule_enum.enumerate params)
    |> List.map (fun (case : Schedule_enum.t) ->
           Ftss_sync.Runner.run
             ~corrupt_at:
               (corrupt_all case (Schedule_enum.corrupt_int case.Schedule_enum.corruption))
             ~faults:(Schedule_enum.to_faults case)
             ~rounds:params.Schedule_enum.rounds
             Ftss_core.Round_agreement.protocol)
  in
  hash_partition_matches_marshal traces

let test_hash_partition_with_mid_run_corruption () =
  (* Exercises the [corrupt_at] generator rounds of the hash: schedules
     differing only in when (or how) a mid-run corruption strikes. *)
  let open Ftss_sync in
  let traces =
    List.concat_map
      (fun r ->
        List.map
          (fun k ->
            let faults =
              Faults.of_events ~n:3 [ Faults.Drop { src = 1; dst = 0; round = 2 } ]
            in
            Runner.run
              ~corrupt_at:(List.init 3 (fun p -> (r, p, fun c -> c + (k * (p + 1)))))
              ~faults ~rounds:5 Ftss_core.Round_agreement.protocol)
          [ 0; 1; 7; 100 ])
      [ 1; 2; 3; 4; 5 ]
  in
  hash_partition_matches_marshal traces

(* --- Prefix-shared exploration --- *)

let shuffled seed cases =
  let cases = Array.copy cases in
  let rng = Rng.create seed in
  for i = Array.length cases - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let c = cases.(i) in
    cases.(i) <- cases.(j);
    cases.(j) <- c
  done;
  cases

let find_property name inject =
  match Property.find ~name ~inject with Ok p -> p | Error msg -> failwith msg

(* The oracle for the knowledge sets the runner and [Trace.sub]
   propagate: a fold over the whole trace, receiver by receiver, with no
   sharing. K_0(p) = {p}; then every delivery from [src] adds [src] and
   K_{r-1}(src). *)
let oracle_knowledge (trace : (_, _) Ftss_sync.Trace.t) =
  let n = trace.Ftss_sync.Trace.n and len = Ftss_sync.Trace.length trace in
  let know = Array.init (len + 1) (fun _ -> Array.init n Pidset.singleton) in
  for round = 1 to len do
    let record = Ftss_sync.Trace.record trace ~round in
    for p = 0 to n - 1 do
      know.(round).(p) <-
        List.fold_left
          (fun acc { Ftss_sync.Protocol.src; _ } ->
            Pidset.add src (Pidset.union acc know.(round - 1).(src)))
          know.(round - 1).(p) record.Ftss_sync.Trace.delivered.(p)
    done
  done;
  know

(* [trace]'s record-carried knowledge sets, and its [Causality] sets and
   coteries, against the oracle fold; then every [Trace.sub] window of it,
   whose records keep [trace]'s sets and whose [Causality] sets and
   coteries are the window's own fold. *)
let check_knowledge ~name trace =
  let source = oracle_knowledge trace in
  let check_one ~name ~carried trace =
    let know = oracle_knowledge trace in
    let n = trace.Ftss_sync.Trace.n and len = Ftss_sync.Trace.length trace in
    let correct = Ftss_sync.Trace.correct trace in
    let a = Ftss_history.Causality.analyze trace in
    for r = 0 to len do
      if r > 0 && (Ftss_sync.Trace.record trace ~round:r).Ftss_sync.Trace.know <> carried r
      then Alcotest.failf "%s: round %d carries other knowledge sets than the fold" name r;
      for p = 0 to n - 1 do
        if not (Pidset.equal (Ftss_history.Causality.knows a ~round:r p) know.(r).(p)) then
          Alcotest.failf "%s: K_%d(p%d) differs from the fold" name r p
      done;
      let coterie =
        if Pidset.is_empty correct then Pidset.full n
        else Pidset.fold (fun q acc -> Pidset.inter acc know.(r).(q)) correct (Pidset.full n)
      in
      if not (Pidset.equal (Ftss_history.Causality.coterie a ~round:r) coterie) then
        Alcotest.failf "%s: coterie of the %d-prefix differs from the fold" name r
    done
  in
  check_one ~name ~carried:(fun r -> source.(r)) trace;
  let len = Ftss_sync.Trace.length trace in
  for first = 1 to len do
    for last = first to len do
      check_one
        ~name:(Printf.sprintf "%s, window %d..%d" name first last)
        ~carried:(fun r -> source.(first - 1 + r))
        (Ftss_sync.Trace.sub trace ~first ~last)
    done
  done

(* The cases walked on one runner cursor in prefix order, as
   [Property.run_batch] walks them, with [protocol] and [corrupt] built
   for each case as the property builds them. Each walked trace must
   hash to the case's [Property.run] fingerprint — so it is that
   property's execution — and carry the oracle's knowledge sets; so must
   one run with a mid-run corruption. *)
let check_knowledge_walk (type s m) ~label
    ~(protocol : Schedule_enum.t -> (s, m) Ftss_sync.Protocol.t)
    ~(corrupt : Schedule_enum.t -> Pid.t -> s -> s) cases ~fingerprint =
  let module R = Ftss_sync.Runner in
  let previous = ref None in
  Array.iter
    (fun i ->
      let case = cases.(i) in
      let rounds = case.Schedule_enum.params.Schedule_enum.rounds in
      let faults = Schedule_enum.to_faults case in
      let shared =
        match !previous with Some (p, _) -> Schedule_enum.shared_prefix p case | None -> -1
      in
      let path =
        match !previous with
        | Some (_, path) when shared >= 0 -> path
        | _ ->
          Array.make (rounds + 1)
            (R.start
               ~corrupt_at:(corrupt_all case (corrupt case))
               ~n:case.Schedule_enum.params.Schedule_enum.n (protocol case))
      in
      for r = max shared 0 + 1 to rounds do
        path.(r) <- R.step ~faults path.(r - 1)
      done;
      previous := Some (case, path);
      let trace = R.finish ~faults path.(rounds) in
      let name = Printf.sprintf "%s case %d" label i in
      check_int (name ^ ": walked hash = fingerprint") (fingerprint i)
        (Ftss_sync.Trace.hash trace);
      check_knowledge ~name trace)
    (Schedule_enum.prefix_order cases).Schedule_enum.order;
  let case = cases.(0) in
  let { Schedule_enum.n; rounds; _ } = case.Schedule_enum.params in
  check_knowledge
    ~name:(label ^ " with a round-2 corruption")
    (R.run
       ~corrupt_at:
         (corrupt_all case (corrupt case)
         @ List.init n (fun p -> (2, p, corrupt case ((p + 1) mod n))))
       ~faults:(Schedule_enum.to_faults case) ~rounds (protocol case))

(* The explorer's batch walk against [Property.run], case by case: every
   field of the walked runs, the explorer's fingerprints, and every stats
   field but the clocks. Under [canonical] the oracle runs each case's
   orbit representative (the orbit's first member in the array), as the
   explorer does. [knowledge], given the
   per-case fingerprints, checks the synchronous theorem's walked traces
   ({!check_knowledge_walk}). *)
let check_walk_against_run ?knowledge ~label prop cases =
  let len = Array.length cases in
  List.iter
    (fun canonical ->
      let rep = Array.init len Fun.id in
      if canonical then begin
        let first = Hashtbl.create 64 in
        Array.iteri
          (fun i c ->
            let key = Schedule_enum.canonical c in
            match Hashtbl.find_opt first key with
            | Some r -> rep.(i) <- r
            | None -> Hashtbl.add first key i)
          cases
      end;
      let executed = List.filter (fun i -> rep.(i) = i) (List.init len Fun.id) in
      let own =
        Array.init len (fun i ->
            if rep.(i) <> i then None
            else
              let r = prop.Property.run cases.(i) in
              let v = Lazy.force r.Property.verdict in
              Some (r.Property.fingerprint, v.Property.ok, v.Property.detail (), r.Property.states))
      in
      let expect = Array.init len (fun i -> Option.get own.(rep.(i))) in
      if not canonical then
        Option.iter
          (fun k -> k ~fingerprint:(fun i -> let fp, _, _, _ = expect.(i) in fp))
          knowledge;
      (* The walk itself, in the explorer's order over the whole array:
         every field of every run, the verdict's detail included. *)
      if not canonical then
        ignore
          (prop.Property.run_batch cases (Schedule_enum.prefix_order cases) ~first:0
             ~limit:len (fun i r ->
               let v = Lazy.force r.Property.verdict in
               if
                 (r.Property.fingerprint, v.Property.ok, v.Property.detail (), r.Property.states)
                 <> expect.(i)
               then Alcotest.failf "%s: walked case %d differs from Property.run" label i));
      let field f = List.map (fun i -> f expect.(i)) executed in
      let fps = List.sort_uniq compare (field (fun (fp, _, _, _) -> fp)) in
      let states = List.fold_left ( + ) 0 (field (fun (_, _, _, s) -> s)) in
      let violations =
        List.filter (fun i -> let _, ok, _, _ = expect.(i) in not ok) (List.init len Fun.id)
      in
      let stepped =
        List.map
          (fun domains ->
            let name = Printf.sprintf "%s canonical=%b d%d" label canonical domains in
            let st, fingerprints = Explore.run ~domains ~canonical prop cases in
            Array.iteri
              (fun i fp ->
                let expected, _, _, _ = expect.(i) in
                if fp <> expected then
                  Alcotest.failf "%s: case %d differs from Property.run" name i)
              fingerprints;
            check_int (name ^ ": cases") len st.Explore.cases;
            check_int (name ^ ": orbits") (List.length executed) st.Explore.orbits;
            check_int (name ^ ": distinct") (List.length fps) st.Explore.distinct;
            check_int (name ^ ": dedup")
              (List.length executed - List.length fps)
              st.Explore.dedup_hits;
            check (name ^ ": violations") true (st.Explore.violations = violations);
            check_int (name ^ ": states") states st.Explore.states;
            check_int (name ^ ": domains") domains st.Explore.domains;
            check_int (name ^ ": per-domain cases") (List.length executed)
              (Array.fold_left (fun a d -> a + d.Explore.d_cases) 0 st.Explore.per_domain);
            check_int (name ^ ": per-domain states") states
              (Array.fold_left (fun a d -> a + d.Explore.d_states) 0 st.Explore.per_domain);
            check (name ^ ": stepped within states") true
              (0 < st.Explore.stepped && st.Explore.stepped <= st.Explore.states);
            st.Explore.stepped)
          [ 1; 2 ]
      in
      check (label ^ ": stepped equal at d1 and d2") true
        (List.for_all (( = ) (List.hd stepped)) stepped))
    [ false; true ]

let test_walk_equals_run_theorem3 () =
  let cases = shuffled 11 (Schedule_enum.enumerate (full 4 2 2)) in
  check_walk_against_run ~label:"theorem3" (find_property "theorem3" "none") cases;
  let cases = shuffled 12 (Schedule_enum.enumerate (full 3 3 1)) in
  let label = "theorem3/frozen-exchange" in
  let frozen =
    {
      Ftss_core.Round_agreement.protocol with
      Ftss_sync.Protocol.name = "round-agreement!frozen-exchange";
      step = (fun _ c _ -> c + 1);
    }
  in
  check_walk_against_run
    ~knowledge:
      (check_knowledge_walk ~label
         ~protocol:(fun _ -> frozen)
         ~corrupt:(fun c -> Schedule_enum.corrupt_int c.Schedule_enum.corruption)
         cases)
    ~label (find_property "theorem3" "frozen-exchange") cases

let test_walk_equals_run_theorem4 () =
  let cases = shuffled 13 (Schedule_enum.enumerate (full 3 3 2)) in
  check_walk_against_run ~label:"theorem4" (find_property "theorem4" "none") cases;
  let cases = shuffled 14 (Schedule_enum.enumerate (full 3 4 1)) in
  let label = "theorem4/no-suspect-filter" in
  let protocol (c : Schedule_enum.t) =
    let { Schedule_enum.n; f; _ } = c.Schedule_enum.params in
    Ftss_core.Compiler.compile ~suspect_filter:false ~n
      (Ftss_protocols.Flooding_consensus.make ~f ~propose:(fun p -> 50 + p))
  in
  let corrupt (c : Schedule_enum.t) p (st : _ Ftss_core.Compiler.state) =
    {
      st with
      Ftss_core.Compiler.c =
        Schedule_enum.corrupt_int c.Schedule_enum.corruption p st.Ftss_core.Compiler.c;
    }
  in
  check_walk_against_run
    ~knowledge:(check_knowledge_walk ~label ~protocol ~corrupt cases)
    ~label (find_property "theorem4" "no-suspect-filter") cases

let test_walk_equals_run_theorem5 () =
  let prop = find_property "theorem5" "none" in
  let cases = shuffled 15 (Schedule_enum.enumerate (prop.Property.restrict (full 3 3 1))) in
  check_walk_against_run ~label:"theorem5" prop cases;
  (* No rounds to share: every state is stepped. *)
  let st, _ = Explore.run ~domains:1 prop cases in
  check_int "theorem5 steps every state" st.Explore.states st.Explore.stepped

(* The printed fingerprint of one case per theorem, through the
   catalogue's [run], the explorer and the injected genome. Fuzz corpus
   files are named by it and [fuzz --json] prints it, so it moves only
   with a change to what a theorem executes: theorem 5's moved once,
   when its corruption came to be realized per pid from one generator,
   the same way for catalogue classes and genomes. *)
let test_golden_fingerprints () =
  List.iter
    (fun (name, params, index, expected) ->
      let prop = find_property name "none" in
      let cases = Schedule_enum.enumerate (prop.Property.restrict params) in
      let hex = prop.Property.fingerprint_hex in
      let r = prop.Property.run cases.(index) in
      Alcotest.(check string) (name ^ ": Property.run") expected (hex r.Property.fingerprint);
      let _, fingerprints = Explore.run prop cases in
      Alcotest.(check string) (name ^ ": Explore.run") expected (hex fingerprints.(index));
      let g = prop.Property.run_adv (Mutate.to_adversary (Mutate.of_schedule cases.(index))) in
      Alcotest.(check string) (name ^ ": injected genome") expected (hex g.Property.fingerprint))
    [
      ("theorem3", full 3 3 1, 137, "31446dc581c605dc");
      ("theorem4", full 3 4 1, 211, "1458c95139002610");
      ("theorem5", full 3 3 1, 23, "0044c801-1f0e56af");
    ]

let test_stepped_pinned () =
  let cases = Schedule_enum.enumerate (full 3 3 1) in
  let prop = theorem3 ~inject:"none" in
  let s1, _ = Explore.run ~domains:1 prop cases in
  let s2, _ = Explore.run ~domains:2 prop cases in
  check_int "states" 4_500 s1.Explore.states;
  check_int "stepped (d1)" 2_283 s1.Explore.stepped;
  check_int "stepped (d2)" 2_283 s2.Explore.stepped;
  check "stepped below states" true (s1.Explore.stepped < s1.Explore.states)

(* [prefix_order] sorts by the digits: the prefix two cases share is the
   least shared by any neighbouring pair between them. *)
let test_prefix_order_groups_prefixes () =
  let cases = shuffled 16 (Schedule_enum.enumerate (full 4 2 2)) in
  let { Schedule_enum.order; _ } = Schedule_enum.prefix_order cases in
  let len = Array.length cases in
  check "a permutation" true
    (List.sort compare (Array.to_list order) = List.init len Fun.id);
  let at p = cases.(order.(p)) in
  let rng = Rng.create 17 in
  for _ = 1 to 2_000 do
    let i = Rng.int rng len in
    let l = min (len - 1) (i + 1 + Rng.int rng 200) in
    let least = ref max_int in
    for p = i to l - 1 do
      least := min !least (Schedule_enum.shared_prefix (at p) (at (p + 1)))
    done;
    if i < l then
      check_int "shared prefix = least neighbouring one" !least
        (Schedule_enum.shared_prefix (at i) (at l))
  done

(* Equal digits through round k: identical executions through round k. *)
let test_shared_prefix_is_exact () =
  let params = full 4 3 2 in
  let cases = shuffled 18 (Schedule_enum.enumerate params) in
  let { Schedule_enum.order; _ } = Schedule_enum.prefix_order cases in
  let run (c : Schedule_enum.t) =
    Ftss_sync.Runner.run
      ~corrupt_at:(corrupt_all c (Schedule_enum.corrupt_int c.Schedule_enum.corruption))
      ~faults:(Schedule_enum.to_faults c) ~rounds:params.Schedule_enum.rounds
      Ftss_core.Round_agreement.protocol
  in
  let upto k (t : (int, int) Ftss_sync.Trace.t) =
    ( Array.sub t.Ftss_sync.Trace.records 0 k,
      List.filter (fun (r, _, _) -> r <= k) t.Ftss_sync.Trace.omissions,
      Array.map
        (function Some r when r <= k -> Some r | _ -> None)
        t.Ftss_sync.Trace.crashed_at )
  in
  let shared = Array.make (params.Schedule_enum.rounds + 2) 0 in
  for p = 1 to Array.length order - 1 do
    let a = cases.(order.(p - 1)) and b = cases.(order.(p)) in
    let k = Schedule_enum.shared_prefix a b in
    shared.(k + 1) <- shared.(k + 1) + 1;
    if k >= 0 then
      if upto k (run a) <> upto k (run b) then
        Alcotest.failf "%s and %s share %d rounds but execute differently"
          (Format.asprintf "%a" Schedule_enum.pp a)
          (Format.asprintf "%a" Schedule_enum.pp b)
          k
  done;
  (* Every depth occurs, so the check above is not vacuous. *)
  Array.iteri
    (fun k c -> if c = 0 then Alcotest.failf "no neighbours share %d rounds" (k - 1))
    shared

(* --- The walk's order and depths, fault rows and verdict tables, each
   against an oracle --- *)

(* Round [r]'s digit as schedule_enum.mli defines it, read straight off
   the behaviour list: the sorted atoms (kind, pid, peer) — 0 crashed,
   1 mute, 2 deaf, 3 isolate, 4 link src->dst — where a point drop that a
   crashed endpoint, a mute sender or a deaf receiver accounts for adds
   none. The packed atoms order as these tuples do. *)
let digit_oracle (c : Schedule_enum.t) r =
  let acts = function
    | Schedule_enum.Crash x -> r >= x
    | Schedule_enum.Mute (a, b) | Schedule_enum.Deaf (a, b) | Schedule_enum.Isolate (a, b) ->
      a <= r && r <= b
    | Schedule_enum.Send_drop (x, _) | Schedule_enum.Recv_drop (x, _) -> r = x
  in
  let active = List.filter (fun (_, b) -> acts b) c.Schedule_enum.behaviors in
  let covers ~src ~dst (p, b) =
    match b with
    | Schedule_enum.Crash _ | Schedule_enum.Isolate _ -> p = src || p = dst
    | Schedule_enum.Mute _ -> p = src
    | Schedule_enum.Deaf _ -> p = dst
    | Schedule_enum.Send_drop _ | Schedule_enum.Recv_drop _ -> false
  in
  List.sort compare
    (List.filter_map
       (fun (p, b) ->
         let link src dst =
           if List.exists (covers ~src ~dst) active then None else Some (4, src, dst)
         in
         match b with
         | Schedule_enum.Crash _ -> Some (0, p, 0)
         | Schedule_enum.Mute _ -> Some (1, p, 0)
         | Schedule_enum.Deaf _ -> Some (2, p, 0)
         | Schedule_enum.Isolate _ -> Some (3, p, 0)
         | Schedule_enum.Send_drop (_, q) -> link p q
         | Schedule_enum.Recv_drop (_, q) -> link q p)
       active)

(* The rank round 0 sorts corruption classes by. *)
let corruption_rank = function
  | Schedule_enum.Clean -> 0
  | Schedule_enum.Zero -> 1
  | Schedule_enum.Parked _ -> 2
  | Schedule_enum.Max -> 3
  | Schedule_enum.Distinct -> 4

(* The walk is the stable sort of the cases by their digits, round 0
   first: a permutation in which each neighbouring pair is in key order,
   equal keys in index order (the one order an LSD radix sort, stable
   from the identity, produces). Each depth is [shared_prefix] of its
   pair. Two domains split the runs alike. *)
let check_walk ~label cases =
  let len = Array.length cases in
  let walk = Schedule_enum.prefix_order cases in
  let { Schedule_enum.order; depth } = walk in
  check (label ^ ": a permutation") true
    (List.sort compare (Array.to_list order) = List.init len Fun.id);
  check (label ^ ": two domains, one walk") true
    (Schedule_enum.prefix_order ~domains:2 cases = walk);
  if len > 0 then check_int (label ^ ": the first depth") (-1) depth.(0);
  let rounds = Array.fold_left (fun m c -> max m c.Schedule_enum.params.Schedule_enum.rounds) 0 cases in
  for p = 1 to len - 1 do
    let i = order.(p - 1) and j = order.(p) in
    let a = cases.(i) and b = cases.(j) in
    let expected = Schedule_enum.shared_prefix a b in
    if depth.(p) <> expected then
      Alcotest.failf "%s: depth %d at position %d, shared_prefix %d" label depth.(p) p expected;
    let rec by_round r =
      if r > rounds then compare i j
      else
        match compare (digit_oracle a r) (digit_oracle b r) with
        | 0 -> by_round (r + 1)
        | c -> c
    in
    let c = compare (corruption_rank a.Schedule_enum.corruption) (corruption_rank b.Schedule_enum.corruption) in
    if (if c <> 0 then c else by_round 1) > 0 then
      Alcotest.failf "%s: positions %d and %d are out of order" label (p - 1) p
  done

let test_walk_order_and_depths () =
  check_walk ~label:"n=3 r=3 f=1" (Schedule_enum.enumerate (full 3 3 1));
  check_walk ~label:"n=4 r=3 f=2" (Schedule_enum.enumerate (full 4 3 2));
  check_walk ~label:"shuffled n=4 r=6 f=2" (shuffled 101 (Schedule_enum.enumerate (full 4 6 2)));
  (* Nine-bit atoms, six to a word: round 1's seven atoms straddle the
     first two words of the key and round 2's the second and third. *)
  check_walk ~label:"shuffled crash-only n=8 r=2 f=7"
    (shuffled 103 (Schedule_enum.enumerate (crash_only_params 8 2 7)));
  (* Every case must lie in case 0's space: one params, parked at its
     horizon, at most f behaviours whose pids and rounds it bounds. *)
  let rejected label cases =
    (match Schedule_enum.prefix_order cases with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: prefix_order accepted it" label);
    match Explore.run (theorem3 ~inject:"none") cases with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: Explore.run accepted it" label
  in
  rejected "mixed params"
    (shuffled 5
       (Array.append
          (Schedule_enum.enumerate (full 3 2 1))
          (Schedule_enum.enumerate (crash_only_params 4 2 2))));
  let params = full 3 2 1 in
  let with_case behaviors =
    Array.append
      (Schedule_enum.enumerate params)
      [| { Schedule_enum.params; behaviors; corruption = Schedule_enum.Clean } |]
  in
  rejected "a round past 2^19" (with_case [ (1, Schedule_enum.Crash (1 lsl 19)) ]);
  rejected "a behaviour past the horizon" (with_case [ (1, Schedule_enum.Mute (2, 3)) ])

(* A case's schedule compiled the way it was before it was built in place:
   its behaviours' events, listed, through [Faults.of_events]. *)
let faults_oracle (c : Schedule_enum.t) =
  let module F = Ftss_sync.Faults in
  F.of_events ~n:c.Schedule_enum.params.Schedule_enum.n
    (List.concat_map
       (fun (pid, b) ->
         match b with
         | Schedule_enum.Crash round -> [ F.Crash { pid; round } ]
         | Schedule_enum.Mute (first, last) -> [ F.Mute { pid; first; last } ]
         | Schedule_enum.Deaf (first, last) -> [ F.Deaf { pid; first; last } ]
         | Schedule_enum.Isolate (first, last) -> [ F.Isolate { pid; first; last } ]
         | Schedule_enum.Send_drop (round, dst) ->
           [ F.Blame { pid }; F.Drop { src = pid; dst; round } ]
         | Schedule_enum.Recv_drop (round, src) ->
           [ F.Blame { pid }; F.Drop { src; dst = pid; round } ])
       c.Schedule_enum.behaviors)

let test_fault_rows_match_events () =
  let module F = Ftss_sync.Faults in
  List.iter
    (fun params ->
      let { Schedule_enum.n; rounds; _ } = params in
      let ncorr = List.length (Schedule_enum.corruptions params) in
      let cases = Schedule_enum.enumerate params in
      (* Every schedule once: the corruption classes share it. *)
      for s = 0 to (Array.length cases / ncorr) - 1 do
        let c = cases.(s * ncorr) in
        let rows = Schedule_enum.to_faults c and events = faults_oracle c in
        let fail what = Alcotest.failf "%s: %a" what Schedule_enum.pp c in
        if not (Pidset.equal (F.faulty rows) (F.faulty events)) then fail "faulty set";
        for p = 0 to n - 1 do
          if F.crash_round rows p <> F.crash_round events p then fail "crash table"
        done;
        for round = 0 to rounds + 1 do
          if F.quiet_round rows ~round <> F.quiet_round events ~round then fail "quiet_round";
          for src = 0 to n - 1 do
            for dst = 0 to n - 1 do
              if F.drops rows ~round ~src ~dst <> F.drops events ~round ~src ~dst then fail "drops"
            done
          done
        done
      done)
    [ full 3 4 1; full 4 3 2 ]

(* The flat verdict table against a [Hashtbl] model: a miss forces the
   run's verdict and keeps its bit, a hit returns the kept bit and leaves
   the verdict unforced. The keys take in 0, [max_int] and [min_int], a
   cluster sharing one home slot at every capacity up to 2^20, one that
   wraps past the last slot of the first capacity, and enough random
   keys to grow the table ten times. *)
let test_verdict_table_matches_model () =
  let run fp ok =
    {
      Property.fingerprint = fp;
      states = 0;
      signature = lazy [||];
      verdict = lazy { Property.ok; detail = (fun () -> "") };
    }
  in
  let memo t model fp ok =
    let r = run fp ok in
    let got = Verdicts.memo t r in
    match Hashtbl.find_opt model fp with
    | Some held ->
      check "a hit returns the kept bit" held got;
      check "a hit leaves the verdict unforced" false (Lazy.is_val r.Property.verdict)
    | None ->
      check "a miss returns the verdict's bit" ok got;
      check "a miss forces the verdict" true (Lazy.is_val r.Property.verdict);
      Hashtbl.add model fp ok
  in
  let rng = Rng.create 42 in
  let keys =
    [ 0; max_int; min_int; 1; -1 ]
    @ List.init 200 (fun j -> j lsl 20)
    @ List.init 40 (fun j -> (j lsl 20) lor 255)
    @ List.init 100_000 (fun _ -> Rng.int rng max_int)
  in
  let bit fp = Hashtbl.hash fp land 1 = 0 in
  let t = Verdicts.create () and model = Hashtbl.create 16 in
  List.iter (fun fp -> memo t model fp (bit fp)) keys;
  (* Every key again, its verdict now the other bit: the kept one wins. *)
  List.iter (fun fp -> memo t model fp (not (bit fp))) keys;
  check_int "one key per fingerprint" (Hashtbl.length model) (Verdicts.distinct [| t |]);
  (* A second table sharing every other key and adding its own. *)
  let u = Verdicts.create () and model_u = Hashtbl.create 16 in
  List.iteri (fun i fp -> if i mod 2 = 0 then memo u model_u fp (bit fp)) keys;
  List.iter (fun fp -> memo u model_u fp (bit fp)) (List.init 5_000 (fun j -> -2 - j));
  let union = Hashtbl.copy model in
  Hashtbl.iter (fun fp ok -> Hashtbl.replace union fp ok) model_u;
  check_int "the union of two tables" (Hashtbl.length union) (Verdicts.distinct [| t; u |]);
  check_int "the union, either order" (Hashtbl.length union) (Verdicts.distinct [| u; t |]);
  check_int "no tables" 0 (Verdicts.distinct [||])

(* --- QCheck: shrinking from random failing cases --- *)

let prop_shrink_preserves_failure =
  let prop = theorem3 ~inject:"frozen-exchange" in
  let params = full 3 3 1 in
  QCheck.Test.make ~name:"shrunk counterexamples still falsify, no larger" ~count:60
    QCheck.(int_range 0 (Schedule_enum.count params - 1))
    (fun i ->
      let case = Schedule_enum.get params i in
      QCheck.assume (fails prop case);
      let g = Mutate.of_schedule case in
      let small = Fuzz.shrink_genome prop g in
      Fuzz.genome_fails prop small && Mutate.size small <= Mutate.size g)

(* A case decoded from any index stays inside its parameter space: at
   most [f] behaviours on distinct in-range pids, ascending, rounds in
   [1, rounds], and one of the explored corruption classes. *)
let prop_random_draws_in_space =
  let params = full 3 3 1 in
  QCheck.Test.make ~name:"random draws decode to valid cases" ~count:200
    QCheck.(int_range 0 (Schedule_enum.count params - 1))
    (fun i ->
      let case = Schedule_enum.get params i in
      let pids = List.map fst case.Schedule_enum.behaviors in
      let in_rounds r = 1 <= r && r <= params.Schedule_enum.rounds in
      let in_pids p = 0 <= p && p < params.Schedule_enum.n in
      List.length pids <= params.Schedule_enum.f
      && List.sort_uniq compare pids = pids
      && List.for_all
           (fun (p, b) ->
             in_pids p
             &&
             match b with
             | Schedule_enum.Crash r -> in_rounds r
             | Schedule_enum.Mute (a, b) | Schedule_enum.Deaf (a, b) | Schedule_enum.Isolate (a, b)
               ->
               in_rounds a && in_rounds b && a <= b
             | Schedule_enum.Send_drop (r, q) | Schedule_enum.Recv_drop (r, q) ->
               in_rounds r && in_pids q && q <> p)
           case.Schedule_enum.behaviors
      && List.mem case.Schedule_enum.corruption (Schedule_enum.corruptions params))

(* The projections the adapters and the shrinker read off a case, and
   the parameter validation every sweep starts with. *)
let test_case_projections () =
  let params = full 4 4 2 in
  let case behaviors = { Schedule_enum.params; behaviors; corruption = Schedule_enum.Clean } in
  let crashes = case [ (1, Schedule_enum.Crash 2); (3, Schedule_enum.Crash 4) ] in
  let mixed = case [ (0, Schedule_enum.Crash 3); (2, Schedule_enum.Mute (1, 2)) ] in
  let genome_crashes c = (Ftss_fuzz.Mutate.of_schedule c).Ftss_fuzz.Mutate.crashes in
  Alcotest.(check (list (pair int int))) "crash events" [ (1, 2); (3, 4) ]
    (genome_crashes crashes);
  Alcotest.(check (list (pair int int))) "only the crashes" [ (0, 3) ]
    (genome_crashes mixed);
  (* Theorem 5 reads a schedule's crashes and refuses any omission. *)
  let theorem5 =
    match Property.find ~name:"theorem5" ~inject:"none" with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  check "theorem 5 holds under crashes" false (fails theorem5 crashes);
  check "theorem 5 holds on the empty schedule" false (fails theorem5 (case []));
  check "crashes reach the simulator" true
    ((theorem5.Property.run crashes).Property.fingerprint
    <> (theorem5.Property.run (case [])).Property.fingerprint);
  check "theorem 5 rejects an omission" true
    (match theorem5.Property.run mixed with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Schedule_enum.validate params;
  List.iter
    (fun (label, bad) ->
      check label true
        (match Schedule_enum.validate bad with
        | () -> false
        | exception Invalid_argument _ -> true))
    [
      ("n < 2 rejected", { params with Schedule_enum.n = 1; f = 0 });
      ("rounds < 1 rejected", { params with Schedule_enum.rounds = 0 });
      ("f = n rejected", { params with Schedule_enum.f = 4 });
      ("negative f rejected", { params with Schedule_enum.f = -1 });
      ("rounds at 2^19 rejected", { params with Schedule_enum.rounds = 1 lsl 19 });
      ("n past 2^19 rejected", { params with Schedule_enum.n = (1 lsl 19) + 1 });
      ("an overflowing count rejected", full 200 100 3);
      ("a count past the longest array rejected", full 3 10_000 2);
    ]

let suite =
  let tc = Alcotest.test_case in
  [
    ( "check",
      [
        tc "closed-form counts" `Quick test_counts;
        tc "enumerate length = count" `Quick test_enumerate_matches_count;
        tc "cases distinct, within budget" `Quick test_cases_distinct_and_within_budget;
        tc "get is deterministic" `Quick test_get_deterministic;
        tc "enumerate = get = the per-index oracle" `Quick test_decoder_matches_oracle;
        tc "to_faults respects budget" `Quick test_to_faults_budget;
        tc "corruption classes" `Quick test_corrupt_int_classes;
        tc "explorer deterministic across domains" `Quick
          test_explore_deterministic_across_domains;
        tc "explorer retains one word per case" `Quick
          test_explore_retains_one_word_per_case;
        tc "theorem 3 holds exhaustively (n=3,r=2,f=1)" `Quick
          test_theorem3_holds_exhaustively;
        tc "shrink reaches the minimal counterexample" `Slow test_shrink_reaches_minimum;
        tc "shrink candidates strictly smaller" `Quick test_candidates_strictly_smaller;
        tc "replay roundtrip covers every clause" `Quick test_replay_roundtrip_all_behaviours;
        tc "replay rejects malformed input" `Quick test_replay_rejects_malformed;
        tc "replayed counterexample reproduces" `Quick test_replay_reproduces;
        tc "traced replay corrupts only the genome's pids" `Quick
          test_traced_replay_corrupts_only_genome_pids;
        tc "golden: explorer verdicts" `Quick test_golden_explorer_verdicts;
        tc "theorem 4 holds exhaustively with obligations (n=3,r=8,f=1)" `Quick
          test_theorem4_exhaustive_with_obligations;
        tc "canonical form well-defined over the corpus" `Quick
          test_canonical_well_defined;
        tc "support and permute" `Quick test_support_and_permute;
        tc "golden: canonical explorer = full enumeration" `Quick
          test_golden_canonical_equivalence;
        tc "hash partition = marshal partition (adversary corpus)" `Quick
          test_hash_partition_over_adversary_corpus;
        tc "walk = Property.run: theorem 3" `Quick test_walk_equals_run_theorem3;
        tc "walk = Property.run: theorem 4" `Quick test_walk_equals_run_theorem4;
        tc "walk = Property.run: theorem 5" `Quick test_walk_equals_run_theorem5;
        tc "stepped pinned (n=3,r=3,f=1)" `Quick test_stepped_pinned;
        tc "golden: rendered fingerprints" `Quick test_golden_fingerprints;
        tc "prefix order groups shared prefixes" `Quick test_prefix_order_groups_prefixes;
        tc "shared prefixes execute identically" `Quick test_shared_prefix_is_exact;
        tc "walk order and depths against their oracles" `Quick test_walk_order_and_depths;
        tc "fault rows = the rows of the listed events" `Quick test_fault_rows_match_events;
        tc "verdict table = a Hashtbl model" `Quick test_verdict_table_matches_model;
        tc "hash partition = marshal partition (mid-run corruption)" `Quick
          test_hash_partition_with_mid_run_corruption;
        to_alcotest prop_shrink_preserves_failure;
        to_alcotest prop_random_draws_in_space;
        tc "case projections and parameter validation" `Quick test_case_projections;
      ] );
  ]
