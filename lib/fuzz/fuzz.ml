open Ftss_util
module S = Ftss_check.Schedule_enum
module P = Ftss_check.Property

type budget = Cases of int | Seconds of float

type config = {
  seed : int;
  budget : budget;
  domains : int;
  params : Mutate.params;
  corpus_dir : string option;
}

type violation = {
  v_genome : Mutate.t;
  v_shrunk : Mutate.t;
  v_fingerprint : string;
  v_detail : string;
  v_seed : bool;
}

type stats = {
  execs : int;
  seed_execs : int;
  corpus_size : int;
  coverage_points : int;
  violations : violation list;
  elapsed : float;
  execs_per_sec : float;
  domains : int;
  coverage_curve : (int * int) list;
  corpus : Mutate.t list;
}

let genome_verdict (prop : P.t) g =
  Lazy.force (prop.P.run_adv (Mutate.to_adversary g)).P.verdict

let genome_fails prop g = not (genome_verdict prop g).P.ok

let rec shrink_genome prop g =
  match List.find_opt (genome_fails prop) (Mutate.reductions g) with
  | Some smaller -> shrink_genome prop smaller
  | None -> g

let run ?obs ?profile (config : config) (prop : P.t) =
  let module Prof = Ftss_profile.Profile in
  (* One lane for the whole campaign: generation is single-threaded and
     each eval batch is spanned as a unit from the coordinating domain,
     so per-domain pool lanes would add nothing but lock traffic: the
     batches run through [Pool.run] without [?profile]. *)
  let lane = Option.map (fun t -> Prof.lane t "fuzz") profile in
  let pspan phase f =
    match lane with
    | None -> f ()
    | Some l ->
      Prof.enter l phase;
      let r = f () in
      ignore (Prof.leave l);
      r
  in
  let domains = Ftss_profile.Pool.domains config.domains in
  (* The effective genome space: theorem 5 thereby turns off drops
     exactly as it does for the exhaustive checker. *)
  let sp = Mutate.catalogue prop config.params in
  let gp = Mutate.params_of_schedule sp in
  match
    match config.corpus_dir with
    | None -> Ok []
    | Some dir -> Corpus.load ~dir
  with
  | Error m -> Error (Printf.sprintf "corpus: %s" m)
  | Ok loaded ->
    let loaded = List.filter (fun g -> g.Mutate.params = gp) loaded in
    let rng = Rng.create config.seed in
    let corpus = Corpus.create () in
    (* One parallel batch: evaluate every genome, returning (fingerprint in
       its printed form, which names corpus files and violations,
       signature, verdict bit) per slot. Per-domain tables of verdict
       bits persist across batches: equal fingerprints imply equal
       verdicts, so a hit only saves evaluating one. The round signature
       is NOT cached: it is a finer observation than the fingerprint (two
       runs in one dedup class can differ in it), so it is recomputed for
       every genome — which keeps the merge below deterministic whatever
       the domain count or interleaving. *)
    let caches = Array.init domains (fun _ -> Ftss_check.Verdicts.create ()) in
    let evaluate genomes =
      let results = Array.make (Array.length genomes) None in
      Ftss_profile.Pool.run ~lane:"fuzz" ~domains (Array.length genomes)
        (fun ~domain ~first ~limit ->
          let cache = caches.(domain) in
          for i = first to limit - 1 do
            let r = prop.P.run_adv (Mutate.to_adversary genomes.(i)) in
            let ok = Ftss_check.Verdicts.memo cache r in
            results.(i) <-
              Some (prop.P.fingerprint_hex r.P.fingerprint, Lazy.force r.P.signature, ok)
          done);
      Array.map Option.get results
    in
    let execs = ref 0 in
    let curve = ref [] in
    let rev_violations = ref [] in
    let seen_violation = Hashtbl.create 16 in
    let traced = Option.is_some obs in
    let emit ev = match obs with Some o -> Ftss_obs.Obs.emit o ev | None -> () in
    let merge ~seed_phase genomes results =
      Array.iteri
        (fun i (fp, signature, ok) ->
          incr execs;
          let grew = Corpus.observe corpus ~genome:genomes.(i) ~fingerprint:fp ~signature in
          if grew then begin
            curve := (!execs, Corpus.points corpus) :: !curve;
            if traced then
              emit
                (Ftss_obs.Event.make ~time:!execs
                   (Ftss_obs.Event.Coverage
                      {
                        execs = !execs;
                        corpus = Corpus.length corpus;
                        points = Corpus.points corpus;
                      }))
          end;
          if (not ok) && not (Hashtbl.mem seen_violation fp) then begin
            Hashtbl.add seen_violation fp ();
            (* The tables keep no explanations: re-run the genome for its own. *)
            rev_violations :=
              {
                v_genome = genomes.(i);
                v_shrunk = genomes.(i) (* shrunk after the loop *);
                v_fingerprint = fp;
                v_detail = (genome_verdict prop genomes.(i)).P.detail ();
                v_seed = seed_phase;
              }
              :: !rev_violations
          end)
        results
    in
    let t0 = Unix.gettimeofday () in
    (* Phase A: the exhaustive catalogue, injected, plus the persisted
       corpus — evaluated up front so the seed phase alone rediscovers
       the exhaustive violation set (the differential oracle). *)
    let seeds =
      Array.append
        (Array.map Mutate.of_schedule (S.enumerate sp))
        (Array.of_list loaded)
    in
    let seeds =
      match config.budget with
      | Cases limit when Array.length seeds > limit -> Array.sub seeds 0 limit
      | _ -> seeds
    in
    pspan Prof.Phase.fuzz_seed (fun () ->
        merge ~seed_phase:true seeds (evaluate seeds));
    let seed_execs = !execs in
    (* Phase B: mutation batches. Generation is single-threaded from the
       seeded generator and depends only on the corpus as merged so far,
       so the whole run is replayable at any domain count. *)
    (* Fixed regardless of [domains]: the corpus snapshot parents are
       re-taken between batches, so the batch size shapes the generated
       mutant sequence — it must not vary with the domain count or the
       run would not replay across machines. *)
    let batch_size = 64 in
    let remaining () =
      match config.budget with
      | Cases limit -> limit - !execs
      | Seconds s ->
        if Unix.gettimeofday () -. t0 < s then batch_size else 0
    in
    let mutants parents k =
      Array.init k (fun _ ->
          let parent () = parents.(Rng.int rng (Array.length parents)) in
          let base =
            if Array.length parents >= 2 && Rng.chance rng 0.2 then
              Mutate.splice rng (parent ()) (parent ())
            else parent ()
          in
          let steps = Rng.int_in rng 1 3 in
          let rec go g k = if k = 0 then g else go (Mutate.mutate rng g) (k - 1) in
          go base steps)
    in
    let rec loop () =
      let k = min batch_size (remaining ()) in
      if k > 0 && Corpus.length corpus > 0 then begin
        let parents = Array.of_list (Corpus.entries corpus) in
        let batch = pspan Prof.Phase.fuzz_mutate (fun () -> mutants parents k) in
        pspan Prof.Phase.fuzz_verify (fun () ->
            merge ~seed_phase:false batch (evaluate batch));
        loop ()
      end
    in
    loop ();
    let elapsed = Unix.gettimeofday () -. t0 in
    let violations =
      pspan Prof.Phase.fuzz_verify (fun () ->
          List.rev_map
            (fun v -> { v with v_shrunk = shrink_genome prop v.v_genome })
            !rev_violations
          |> List.rev)
    in
    (match config.corpus_dir with
    | Some dir -> Corpus.save corpus ~dir
    | None -> ());
    let stats =
      {
        execs = !execs;
        seed_execs;
        corpus_size = Corpus.length corpus;
        coverage_points = Corpus.points corpus;
        violations;
        elapsed;
        execs_per_sec = (if elapsed > 0. then float_of_int !execs /. elapsed else 0.);
        domains;
        coverage_curve = List.rev !curve;
        corpus = Corpus.entries corpus;
      }
    in
    (match obs with
    | None -> ()
    | Some o ->
      Ftss_obs.Obs.with_metrics o (fun m ->
          let set name v = Ftss_obs.Metrics.set (Ftss_obs.Metrics.gauge m name) v in
          set "fuzz_execs_per_sec" stats.execs_per_sec;
          set "fuzz_violations" (float_of_int (List.length violations))));
    Ok stats

let to_json s =
  let open Ftss_obs.Json in
  Obj
    [
      ("execs", Int s.execs);
      ("seed_execs", Int s.seed_execs);
      ("corpus_size", Int s.corpus_size);
      ("coverage_points", Int s.coverage_points);
      ( "violations",
        List
          (List.map
             (fun v ->
               Obj
                 [
                   ("fingerprint", String v.v_fingerprint);
                   ("detail", String v.v_detail);
                   ("seed_phase", Bool v.v_seed);
                   ("size", Int (Mutate.size v.v_genome));
                   ("shrunk_size", Int (Mutate.size v.v_shrunk));
                 ])
             s.violations) );
      ("elapsed", Float s.elapsed);
      ("execs_per_sec", Float s.execs_per_sec);
      ("domains", Int s.domains);
      ( "coverage_curve",
        List
          (List.map
             (fun (e, p) -> Obj [ ("execs", Int e); ("points", Int p) ])
             s.coverage_curve) );
    ]

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>executions: %d (%d seed, %d mutated)@,\
     corpus: %d entries covering %d points@,\
     violations: %d@,\
     elapsed: %.3f s at %d domain%s (%.0f execs/s)@]"
    s.execs s.seed_execs (s.execs - s.seed_execs) s.corpus_size s.coverage_points
    (List.length s.violations) s.elapsed s.domains
    (if s.domains = 1 then "" else "s")
    s.execs_per_sec
