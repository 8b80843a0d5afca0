(* Benchmark harness: regenerates every experiment table (E1-E7, one per
   figure/theorem of the paper — see DESIGN.md's per-experiment index and
   EXPERIMENTS.md for paper-claim vs measured) and runs the bechamel
   microbenchmark suite (M1). Each experiment also writes its headline
   aggregates as BENCH_<name>.json in the working directory.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- E1 E5   # a subset
     dune exec bench/main.exe -- M1      # microbenchmarks only

   [--meta-rev REV] and [--meta-date DATE] stamp the envelopes with the
   producing revision and date, so committed baselines are
   self-describing. When a flag is omitted the harness asks git for the
   checked-out revision and commit date, so locally regenerated baselines
   are stamped too, not only CI's. *)

(* First line of [cmd]'s stdout, or [None] when the command fails (not a
   git checkout, no git in PATH) — the stamp is best-effort metadata. *)
let command_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when l <> "" -> Some l
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let git_rev () = command_line "git rev-parse --short HEAD 2>/dev/null"
let git_date () = command_line "git log -1 --format=%cs 2>/dev/null"

let () =
  let rec parse_args acc rev date = function
    | [] -> (List.rev acc, rev, date)
    | "--meta-rev" :: v :: rest -> parse_args acc (Some v) date rest
    | "--meta-date" :: v :: rest -> parse_args acc rev (Some v) rest
    | ("--meta-rev" | "--meta-date") :: [] ->
      prerr_endline "bench: --meta-rev/--meta-date need a value";
      exit 2
    | x :: rest -> parse_args (x :: acc) rev date rest
  in
  let requested, meta_rev, meta_date =
    parse_args [] None None (List.tl (Array.to_list Sys.argv))
  in
  let meta_rev = match meta_rev with Some _ as r -> r | None -> git_rev () in
  let meta_date = match meta_date with Some _ as d -> d | None -> git_date () in
  let valid = List.map fst Experiments.all @ [ "M1" ] in
  let unknown = List.filter (fun r -> not (List.mem r valid)) requested in
  if unknown <> [] then begin
    Printf.eprintf "bench: unknown experiment%s: %s\nvalid names: %s\n"
      (if List.length unknown = 1 then "" else "s")
      (String.concat ", " unknown)
      (String.concat " " valid);
    exit 2
  end;
  let wanted name = requested = [] || List.mem name requested in
  (* Run metadata: where and how a baseline was produced. The bench-diff
     loader ignores unknown envelope fields, so older readers still load
     stamped files. *)
  let meta =
    let opt k v = match v with None -> [] | Some v -> [ (k, Ftss_obs.Json.String v) ] in
    Ftss_obs.Json.Obj
      (opt "git_rev" meta_rev
      @ opt "date" meta_date
      @ [ ("domains", Ftss_obs.Json.Int (Ftss_profile.Pool.available ())) ])
  in
  let with_metrics name experiment =
    let m = Ftss_obs.Metrics.create () in
    let t0 = Unix.gettimeofday () in
    experiment m;
    Ftss_obs.Metrics.set
      (Ftss_obs.Metrics.gauge m "elapsed_seconds")
      (Unix.gettimeofday () -. t0);
    let path = Printf.sprintf "BENCH_%s.json" name in
    (* Schema-2 envelope: the experiment's name and a schema tag wrap the
       metrics snapshot, so [ftss bench-diff] can refuse cross-experiment
       comparisons. Bare schema-1 files (no envelope) remain readable. *)
    let doc =
      match Ftss_obs.Metrics.to_json m with
      | Ftss_obs.Json.Obj fields ->
        Ftss_obs.Json.Obj
          (("experiment", Ftss_obs.Json.String name)
          :: ("schema", Ftss_obs.Json.Int 2)
          :: ("meta", meta)
          :: fields)
      | other -> other
    in
    let oc = open_out path in
    output_string oc (Ftss_obs.Json.to_string doc);
    output_char oc '\n';
    close_out oc
  in
  (* OCaml 5.1's default minor heap, 262,144 words, whatever
     OCAMLRUNPARAM asks for: E14's allocation gauges count the words a
     run promotes, and the minor heap's size moves that count. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144 };
  List.iter
    (fun (name, experiment) ->
      if wanted name then begin
        with_metrics name experiment;
        print_newline ()
      end)
    Experiments.all;
  if wanted "M1" then with_metrics "M1" Microbench.run
