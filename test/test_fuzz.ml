(* Tests for ftss_fuzz: genome validity under mutation, the
   Schedule_enum -> genome injection round-trip, corpus persistence,
   genome shrinking, and the headline differential oracle — on the seed
   phase alone the fuzzer must rediscover exactly the violation set the
   exhaustive checker finds, with shrunken counterexamples no larger
   than the exhaustive minima. *)

open Ftss_util
module S = Ftss_check.Schedule_enum
module P = Ftss_check.Property
module E = Ftss_check.Explore
module M = Ftss_fuzz.Mutate
module C = Ftss_fuzz.Corpus
module F = Ftss_fuzz.Fuzz
module J = Ftss_obs.Json

(* A genome's corpus-file text, and its reading back from that text. *)
let genome_text g = J.to_string (M.to_json g) ^ "\n"
let reload g = Result.bind (J.of_string (genome_text g)) M.of_json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let to_alcotest = QCheck_alcotest.to_alcotest

let full n rounds f = { S.n; rounds; f; intervals = true; drops = true }

let property ~name ~inject =
  match P.find ~name ~inject with Ok p -> p | Error m -> failwith m

let genome_params n rounds f = { M.n; rounds; f; allow_drops = true }

let fuzz_config ?corpus_dir ~seed ~budget ~domains params =
  { F.seed; budget; domains; params; corpus_dir }

let run_fuzz ?corpus_dir ~seed ~budget ~domains params prop =
  match F.run (fuzz_config ?corpus_dir ~seed ~budget ~domains params) prop with
  | Ok stats -> stats
  | Error m -> Alcotest.failf "fuzz: %s" m

(* --- Mutate: injection and validity --- *)

(* A genome is well formed iff it survives the corpus format: the reader
   rejects every genome that breaks an invariant against its params. *)
let validate g =
  match reload g with
  | Ok g' when M.equal g g' -> Ok ()
  | Ok _ -> Error "corpus round-trip changed the genome"
  | Error m -> Error m

let is_valid g = validate g = Ok ()

let test_of_schedule_valid () =
  List.iter
    (fun p ->
      Array.iter
        (fun case ->
          let g = M.of_schedule case in
          (match validate g with
          | Ok () -> ()
          | Error m -> Alcotest.failf "invalid injected genome: %s" m);
          check "params match the enumeration" true
            (g.M.params = M.params_of_schedule p))
        (S.enumerate p))
    [ full 3 3 1; { (full 3 2 1) with S.intervals = false; drops = false } ]

(* The load-bearing fact under the differential oracle: injecting a
   catalogue case into the genome space and evaluating it through the
   adversary interface reproduces the exact execution fingerprint of the
   catalogue run — the compiled fault schedules answer every drop query
   identically and declare the identical faulty set, and both front ends
   hand each theorem the same per-pid corruption, which theorem 5
   realizes one way. *)
let test_roundtrip_fingerprints () =
  List.iter
    (fun (name, inject, rounds) ->
      let prop = property ~name ~inject in
      let sp = prop.P.restrict (full 3 rounds 1) in
      Array.iteri
        (fun i case ->
          let direct = prop.P.run case in
          let injected = prop.P.run_adv (M.to_adversary (M.of_schedule case)) in
          if direct.P.fingerprint <> injected.P.fingerprint then
            Alcotest.failf "%s/%s r=%d case %d: fingerprint changed under injection"
              name inject rounds i;
          let dv = Lazy.force direct.P.verdict
          and iv = Lazy.force injected.P.verdict in
          if dv.P.ok <> iv.P.ok then
            Alcotest.failf "%s/%s r=%d case %d: verdict changed under injection" name
              inject rounds i)
        (S.enumerate sp))
    [
      ("theorem3", "none", 2);
      ("theorem3", "frozen-exchange", 2);
      ("theorem4", "none", 2);
      ("theorem4", "no-suspect-filter", 2);
      ("theorem5", "none", 2);
      ("theorem5", "none", 3);
    ]

let random_genome rng =
  let p = full 3 4 1 in
  let cases = S.enumerate p in
  let g = M.of_schedule cases.(Rng.int rng (Array.length cases)) in
  let steps = Rng.int rng 8 in
  let rec go g k = if k = 0 then g else go (M.mutate rng g) (k - 1) in
  go g steps

let prop_mutants_stay_valid =
  QCheck.Test.make ~name:"mutants of valid genomes are valid" ~count:60
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 1) in
      let g = random_genome rng in
      let rec go g k =
        k = 0
        ||
        let g' = M.mutate rng g in
        is_valid g' && g'.M.params = g.M.params && go g' (k - 1)
      in
      go g 12)

let prop_splice_stays_valid =
  QCheck.Test.make ~name:"splices of valid genomes are valid" ~count:60
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 101) in
      let a = random_genome rng and b = random_genome rng in
      let s = M.splice rng a b in
      is_valid s && s.M.params = a.M.params)

let test_mutate_deterministic () =
  let trail seed =
    let rng = Rng.create seed in
    let g = ref (M.of_schedule (S.enumerate (full 3 4 1)).(7)) in
    List.init 50 (fun _ ->
        g := M.mutate rng !g;
        !g)
  in
  check "same seed, same mutation trail" true
    (List.equal M.equal (trail 42) (trail 42));
  check "different seeds diverge" true
    (not (List.equal M.equal (trail 42) (trail 43)))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string round-trips" ~count:80
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 201) in
      let g = random_genome rng in
      match reload g with
      | Ok g' -> M.equal g g'
      | Error _ -> false)

(* --- Corpus persistence --- *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ftss_fuzz_test_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir)
    else Sys.mkdir dir 0o755;
    dir

let test_corpus_save_load_identity () =
  let rng = Rng.create 9 in
  let corpus = C.create () in
  let admitted = ref [] in
  for i = 0 to 19 do
    let g = random_genome rng in
    (* Synthetic coverage: a fresh fingerprint per genome admits all. *)
    let fp = Printf.sprintf "%08x" (1000 + i) in
    if C.observe corpus ~genome:g ~fingerprint:fp ~signature:[| i |] then
      admitted := g :: !admitted
  done;
  let admitted = List.rev !admitted in
  check_int "all synthetic entries admitted" 20 (List.length admitted);
  let dir = temp_dir () in
  C.save corpus ~dir;
  match C.load ~dir with
  | Error m -> Alcotest.failf "load: %s" m
  | Ok loaded ->
    check_int "same cardinality" (List.length admitted) (List.length loaded);
    (* Files load in name order; compare as sets of genomes. *)
    let sort = List.sort compare in
    check "same genomes" true (List.equal M.equal (sort admitted) (sort loaded))

(* The admission cap is 4096 entries: past it, new coverage is still
   recorded and still reported as growth, but no genome is admitted. *)
let test_corpus_admission_cap () =
  let corpus = C.create () in
  let g = random_genome (Rng.create 3) in
  for i = 0 to 4_999 do
    if not (C.observe corpus ~genome:g ~fingerprint:(Printf.sprintf "%08x" i) ~signature:[| i |])
    then Alcotest.failf "observation %d: new coverage not reported" i
  done;
  check_int "admitted up to the cap" 4_096 (C.length corpus);
  check_int "entries agree with length" 4_096 (List.length (C.entries corpus));
  check_int "coverage past the cap still counted" 10_000 (C.points corpus);
  check "known coverage is not growth" false
    (C.observe corpus ~genome:g ~fingerprint:"00000000" ~signature:[| 0 |])

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  at 0

let test_corpus_garbage_file_is_an_error () =
  let dir = temp_dir () in
  let path = Filename.concat dir "bad.genome" in
  let oc = open_out path in
  output_string oc "this is not a genome";
  close_out oc;
  match C.load ~dir with
  | Ok _ -> Alcotest.fail "garbage corpus file loaded"
  | Error m -> check "error names the file" true (contains ~affix:"bad.genome" m)

let test_corpus_truncated_file_is_an_error () =
  let dir = temp_dir () in
  let g = M.of_schedule (S.enumerate (full 3 3 1)).(42) in
  let s = genome_text g in
  let oc = open_out (Filename.concat dir "cut.genome") in
  output_string oc (String.sub s 0 (String.length s / 2));
  close_out oc;
  match C.load ~dir with
  | Ok _ -> Alcotest.fail "truncated corpus file loaded"
  | Error m -> check "error names the file" true (contains ~affix:"cut.genome" m)

let test_corpus_missing_dir_is_empty () =
  match C.load ~dir:"/nonexistent/ftss/corpus" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "phantom entries"
  | Error m -> Alcotest.failf "missing dir should be empty, got error: %s" m

(* Every malformed genome file is rejected for its own reason: each case
   breaks one thing in an otherwise valid document, and the error must
   name that thing and the file. *)
let test_corpus_rejects_malformed () =
  let doc ?(format = {|"ftss-genome"|}) ?(version = "2") ?(n = "3") ?(faulty = "[1]")
      ?(crashes = "[[1,4]]") ?(drops = {|,"drops":[[2,0,1]]|}) () =
    Printf.sprintf
      {|{"format":%s,"version":%s,"params":{"n":%s,"rounds":4,"f":1,"allow_drops":true},"faulty":%s,"crashes":%s%s,"corrupt":[[0,42]]}|}
      format version n faulty crashes drops
  in
  let dir = temp_dir () in
  let path = Filename.concat dir "case.genome" in
  let load text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    C.load ~dir
  in
  (match load (doc ()) with
  | Ok [ _ ] -> ()
  | Ok _ -> Alcotest.fail "base document: wrong entry count"
  | Error m -> Alcotest.failf "base document rejected: %s" m);
  List.iter
    (fun (label, text, reason) ->
      match load text with
      | Ok _ -> Alcotest.failf "%s: accepted" label
      | Error m ->
        if not (contains ~affix:reason m && contains ~affix:"case.genome" m) then
          Alcotest.failf "%s: error %S does not name %S and the file" label m reason)
    [
      ("missing field", doc ~drops:"" (), {|missing field "drops"|});
      ("mistyped field", doc ~crashes:{|[[1,"4"]]|} (), {|field "crashes" has the wrong type|});
      ("mistyped param", doc ~n:{|"3"|} (), {|field "n" has the wrong type|});
      ("pid out of range", doc ~crashes:"[[5,4]]" (), "crash pid 5 outside 0..2");
      ("unrepresentable pid", doc ~faulty:"[1000000000]" (), "outside the representable range");
      ("round out of range", doc ~crashes:"[[1,9]]" (), "crash round 9 outside 1..4");
      ("fault budget exceeded", doc ~faulty:"[0,1]" (), "2 declared faulty, budget f=1");
      ("trailing input", doc () ^ " {}", "trailing input after document");
      ("wrong format", doc ~format:{|"ftss-counterexample"|} (), "is not ftss-genome");
      ("wrong version", doc ~version:"1" (), "unsupported genome version 1");
      ( "version-1 S-expression file",
        "(ftss-genome\n (version 1)\n (params (n 3) (rounds 4) (f 1) (allow-drops true)))\n",
        "version-1 S-expression genome" );
    ]

(* The corpus file format is pinned by a golden file: a format change
   that breaks persisted corpora must show up as a diff here. *)
let golden_genome =
  {
    M.params = { M.n = 3; rounds = 4; f = 1; allow_drops = true };
    faulty = Pidset.of_list [ 1 ];
    crashes = [ (1, 4) ];
    drops = [ (2, 0, 1); (3, 1, 0); (3, 1, 2) ];
    corrupt = [ (0, 42); (2, 999983) ];
  }

let golden_path () =
  (* cwd is _build/default/test under `dune runtest` but the repo root
     under `dune exec test/test_main.exe`. *)
  if Sys.file_exists "golden.genome" then "golden.genome"
  else Filename.concat "test" "golden.genome"

let test_corpus_golden_format () =
  let ic = open_in (golden_path ()) in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "serialization matches the pinned file" s
    (genome_text golden_genome);
  match Result.bind (J.of_string s) M.of_json with
  | Ok g -> check "pinned file parses back" true (M.equal g golden_genome)
  | Error m -> Alcotest.failf "golden file: %s" m

(* --- Shrinking --- *)

(* The genome descent terminates on a strictly decreasing measure and
   lands on the boundary of the failing region: against a property that
   fails while at least two pids are corrupted, a genome with a crash and
   three corrupted pids descends to exactly two corrupted pids and
   nothing else; a genome with nothing to reduce is already minimal. *)
let test_fixpoint_generic_termination () =
  let corrupted (a : P.adversary) =
    List.length (List.filter_map a.P.adv_corrupt (Pid.all a.P.adv_n))
  in
  let judging fails =
    let run ?obs:_ adv =
      let ok = not (fails adv) in
      {
        P.fingerprint = 0;
        states = 0;
        signature = lazy [||];
        verdict = lazy { P.ok; detail = (fun () -> "") };
      }
    in
    { (property ~name:"theorem3" ~inject:"none") with P.run_adv = run }
  in
  let g =
    {
      M.params = genome_params 3 3 1;
      faulty = Pidset.singleton 0;
      crashes = [ (0, 2) ];
      drops = [];
      corrupt = [ (0, 292); (1, 293); (2, 294) ];
    }
  in
  check "start genome is valid" true (is_valid g);
  let small = F.shrink_genome (judging (fun a -> corrupted a >= 2)) g in
  check "descends to the boundary" true
    (Pidset.is_empty small.M.faulty && small.M.crashes = []
    && List.length small.M.corrupt = 2);
  let empty = { g with M.faulty = Pidset.empty; crashes = []; corrupt = [] } in
  check "already minimal" true
    (M.equal empty (F.shrink_genome (judging (fun _ -> true)) empty))

let test_reductions_strictly_decrease () =
  let rng = Rng.create 77 in
  for _ = 1 to 40 do
    let g = random_genome rng in
    List.iter
      (fun g' ->
        check "reduction is valid" true (is_valid g');
        check "reduction strictly smaller" true (M.size g' < M.size g))
      (M.reductions g)
  done

let first_violation prop sp =
  let cases = S.enumerate sp in
  let rec go i =
    if i >= Array.length cases then Alcotest.fail "no violation in space"
    else if not (Lazy.force (prop.P.run cases.(i)).P.verdict).P.ok then cases.(i)
    else go (i + 1)
  in
  go 0

let test_genome_shrink_deterministic_local_minimum () =
  let prop = property ~name:"theorem3" ~inject:"frozen-exchange" in
  let case = first_violation prop (prop.P.restrict (full 3 3 1)) in
  let g = M.of_schedule case in
  check "injected violation still fails" true (F.genome_fails prop g);
  let s1 = F.shrink_genome prop g in
  let s2 = F.shrink_genome prop g in
  check "shrinking is deterministic" true (M.equal s1 s2);
  check "shrunk genome still fails" true (F.genome_fails prop s1);
  check "shrinking twice is a fixpoint" true
    (M.equal s1 (F.shrink_genome prop s1));
  (* Local minimum: no single reduction still fails. *)
  List.iter
    (fun g' -> check "reduction of the minimum passes" true (not (F.genome_fails prop g')))
    (M.reductions s1)

(* --- The differential oracle --- *)

let fingerprint_set l = List.sort_uniq String.compare l

let exhaustive_violations prop sp =
  let stats, fingerprints = E.run ~domains:2 prop (S.enumerate sp) in
  List.map (fun i -> (i, prop.P.fingerprint_hex fingerprints.(i))) stats.E.violations

(* Seed phase only (budget = case count): the fuzzer must find exactly
   the violation set the exhaustive checker finds — both directions —
   and shrink each to the genome [ftss check] writes for the first
   catalogue case with that fingerprint. *)
let oracle_one ~name ~inject ~n ~rounds ~f ~expect_violations =
  let prop = property ~name ~inject in
  let sp = prop.P.restrict (full n rounds f) in
  let cases = S.enumerate sp in
  let exhaustive = exhaustive_violations prop sp in
  check_int
    (Printf.sprintf "%s/%s (%d,%d,%d): exhaustive violation count" name inject n
       rounds f)
    expect_violations (List.length exhaustive);
  let stats =
    run_fuzz ~seed:7 ~budget:(F.Cases (Array.length cases)) ~domains:2
      (genome_params n rounds f) prop
  in
  check_int "budget covered exactly the seed phase" (Array.length cases)
    stats.F.seed_execs;
  check_int "no mutation executions" stats.F.seed_execs stats.F.execs;
  List.iter
    (fun (v : F.violation) ->
      check "every violation found during seeding" true v.F.v_seed)
    stats.F.violations;
  let fuzz_fps =
    fingerprint_set (List.map (fun v -> v.F.v_fingerprint) stats.F.violations)
  in
  let exhaustive_fps = fingerprint_set (List.map snd exhaustive) in
  Alcotest.(check (list string))
    (Printf.sprintf "%s/%s (%d,%d,%d): identical violation sets" name inject n
       rounds f)
    exhaustive_fps fuzz_fps;
  List.iter
    (fun (v : F.violation) ->
      let i, _ =
        List.find (fun (_, fp) -> fp = v.F.v_fingerprint) exhaustive
      in
      check "fuzz minimum = the minimum check writes" true
        (M.equal v.F.v_shrunk (F.shrink_genome prop (M.of_schedule cases.(i))));
      check "shrunk genome replays as a violation" true
        (F.genome_fails prop v.F.v_shrunk))
    stats.F.violations

let test_oracle_frozen_exchange_empty () =
  oracle_one ~name:"theorem3" ~inject:"frozen-exchange" ~n:3 ~rounds:2 ~f:1
    ~expect_violations:0

let test_oracle_frozen_exchange_violating () =
  (* The pinned parameterization: 82 violating cases of 500. *)
  oracle_one ~name:"theorem3" ~inject:"frozen-exchange" ~n:3 ~rounds:3 ~f:1
    ~expect_violations:82

let test_oracle_no_suspect_filter_small () =
  (* E11's negative result: no single-behaviour catalogue case breaks
     the unfiltered suspect rule — the oracle must agree on emptiness. *)
  oracle_one ~name:"theorem4" ~inject:"no-suspect-filter" ~n:3 ~rounds:2 ~f:1
    ~expect_violations:0

let test_oracle_no_suspect_filter_larger () =
  oracle_one ~name:"theorem4" ~inject:"no-suspect-filter" ~n:3 ~rounds:3 ~f:1
    ~expect_violations:0

(* The fuzzer's reason to exist: with mutation enabled it escapes the
   catalogue. no-suspect-filter is unbreakable by any single-behaviour
   case (E11), but the E8a insidious adversary — mute toward all but one
   witness, then a timed reveal — lives in the genome space, and the
   fuzzer finds it. *)
let test_fuzzer_beats_the_catalogue () =
  let prop = property ~name:"theorem4" ~inject:"no-suspect-filter" in
  let sp = prop.P.restrict (full 3 6 1) in
  let exhaustive = exhaustive_violations prop sp in
  check_int "the catalogue finds nothing at (3,6,1)" 0 (List.length exhaustive);
  let stats =
    run_fuzz ~seed:1 ~budget:(F.Cases 4000) ~domains:2 (genome_params 3 6 1)
      prop
  in
  check "mutation finds composite-adversary violations" true
    (stats.F.violations <> []);
  List.iter
    (fun (v : F.violation) ->
      check "found beyond the seed phase" true (not v.F.v_seed);
      check "shrunk violation replays" true (F.genome_fails prop v.F.v_shrunk);
      check "shrunk violation needs drops" true (v.F.v_shrunk.M.drops <> []))
    stats.F.violations

let test_fuzz_deterministic_across_domains () =
  let prop = property ~name:"theorem3" ~inject:"frozen-exchange" in
  let run domains =
    run_fuzz ~seed:3 ~budget:(F.Cases 700) ~domains (genome_params 3 3 1) prop
  in
  let a = run 1 and b = run 4 in
  check_int "same executions" a.F.execs b.F.execs;
  check_int "same coverage points" a.F.coverage_points b.F.coverage_points;
  check "same coverage curve" true (a.F.coverage_curve = b.F.coverage_curve);
  check "same corpus" true (List.equal M.equal a.F.corpus b.F.corpus);
  Alcotest.(check (list string))
    "same violations in the same order"
    (List.map (fun v -> v.F.v_fingerprint) a.F.violations)
    (List.map (fun v -> v.F.v_fingerprint) b.F.violations);
  check "same shrunk genomes" true
    (List.equal M.equal
       (List.map (fun v -> v.F.v_shrunk) a.F.violations)
       (List.map (fun v -> v.F.v_shrunk) b.F.violations))

(* Every violation must survive persist -> reload -> replay -> shrink,
   deterministically — the reproducibility contract the CLI self-checks
   and CI enforces. *)
let test_violation_persist_replay_shrink () =
  let prop = property ~name:"theorem3" ~inject:"frozen-exchange" in
  let stats =
    run_fuzz ~seed:7 ~budget:(F.Cases 500) ~domains:2 (genome_params 3 3 1) prop
  in
  check "violations found" true (stats.F.violations <> []);
  List.iteri
    (fun i (v : F.violation) ->
      if i < 5 then begin
        match reload v.F.v_genome with
        | Error m -> Alcotest.failf "violation %d does not reload: %s" i m
        | Ok g ->
          check "reloaded genome identical" true (M.equal g v.F.v_genome);
          check "reloaded genome still fails" true (F.genome_fails prop g);
          let s1 = F.shrink_genome prop g and s2 = F.shrink_genome prop g in
          check "reloaded shrink deterministic" true (M.equal s1 s2);
          check "reloaded shrink matches the run's" true (M.equal s1 v.F.v_shrunk)
      end)
    stats.F.violations

let test_fuzz_corpus_dir_round_trip () =
  let prop = property ~name:"theorem3" ~inject:"frozen-exchange" in
  let dir = temp_dir () in
  let stats =
    run_fuzz ~corpus_dir:dir ~seed:11 ~budget:(F.Cases 600) ~domains:2
      (genome_params 3 3 1) prop
  in
  (match C.load ~dir with
  | Error m -> Alcotest.failf "saved corpus does not reload: %s" m
  | Ok loaded ->
    check_int "saved corpus has every admitted entry" stats.F.corpus_size
      (List.length loaded));
  (* A second run re-seeds from the saved corpus. Every violation of the
     first run was admitted (a violating execution has a new fingerprint,
     which is coverage growth), so with a budget covering all seeds the
     second run must rediscover at least the first run's violation set. *)
  let stats' =
    run_fuzz ~corpus_dir:dir ~seed:12 ~budget:(F.Cases 2000) ~domains:2
      (genome_params 3 3 1) prop
  in
  let fps r = fingerprint_set (List.map (fun v -> v.F.v_fingerprint) r.F.violations) in
  check "persisted corpus reproduces every earlier violation" true
    (List.for_all (fun fp -> List.mem fp (fps stats')) (fps stats))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "fuzz-mutate",
      [
        tc "of_schedule injections are valid" `Quick test_of_schedule_valid;
        tc "injection preserves fingerprints" `Quick test_roundtrip_fingerprints;
        tc "mutation is deterministic" `Quick test_mutate_deterministic;
        to_alcotest prop_mutants_stay_valid;
        to_alcotest prop_splice_stays_valid;
        to_alcotest prop_json_roundtrip;
      ] );
    ( "fuzz-corpus",
      [
        tc "save/load identity" `Quick test_corpus_save_load_identity;
        tc "garbage file is a clear error" `Quick test_corpus_garbage_file_is_an_error;
        tc "truncated file is a clear error" `Quick test_corpus_truncated_file_is_an_error;
        tc "missing directory is empty" `Quick test_corpus_missing_dir_is_empty;
        tc "golden file format" `Quick test_corpus_golden_format;
        tc "malformed files are rejected for their own reason" `Quick
          test_corpus_rejects_malformed;
        tc "admission stops at 4096 entries" `Quick test_corpus_admission_cap;
      ] );
    ( "fuzz-shrink",
      [
        tc "fixpoint terminates on decreasing measures" `Quick
          test_fixpoint_generic_termination;
        tc "reductions strictly decrease" `Quick test_reductions_strictly_decrease;
        tc "genome shrink: deterministic local minimum" `Quick
          test_genome_shrink_deterministic_local_minimum;
      ] );
    ( "fuzz-oracle",
      [
        tc "differential oracle: frozen-exchange (3,2,1) empty" `Quick
          test_oracle_frozen_exchange_empty;
        tc "differential oracle: frozen-exchange (3,3,1)" `Quick
          test_oracle_frozen_exchange_violating;
        tc "differential oracle: no-suspect-filter (3,2,1)" `Quick
          test_oracle_no_suspect_filter_small;
        tc "differential oracle: no-suspect-filter (3,3,1)" `Quick
          test_oracle_no_suspect_filter_larger;
        tc "mutation escapes the catalogue (E8a rediscovered)" `Quick
          test_fuzzer_beats_the_catalogue;
        tc "deterministic across domain counts" `Quick
          test_fuzz_deterministic_across_domains;
        tc "violations persist, replay and shrink deterministically" `Quick
          test_violation_persist_replay_shrink;
        tc "corpus directory round trip" `Quick test_fuzz_corpus_dir_round_trip;
      ] );
  ]
