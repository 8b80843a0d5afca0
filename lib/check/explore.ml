module Prof = Ftss_profile.Profile

type result = { fingerprint : int; ok : bool; detail : unit -> string; states : int }

type domain_stat = { d_cases : int; d_states : int; d_busy : float }

type stats = {
  cases : int;
  orbits : int;
  distinct : int;
  dedup_hits : int;
  violations : int list;
  states : int;
  stepped : int;
  elapsed : float;
  domains : int;
  per_domain : domain_stat array;
}

let run ?obs ?profile ?(domains = 1) ?(canonical = false) (property : Property.t)
    cases =
  let full_len = Array.length cases in
  (* Symmetry reduction: group the cases by their canonical form under
     pid permutation and execute one representative per orbit. Grouping
     by a canonical member is always sound as a partition (two cases
     share a key iff one is a relabelling of the other); collapsing
     {e verdicts} across an orbit additionally assumes the property is
     pid-symmetric — which is why the mode is opt-in and pinned by the
     golden equivalence suite rather than assumed. *)
  let reps, rep_of =
    if not canonical then (None, [||])
    else begin
      let tbl = Hashtbl.create (max 16 full_len) in
      let rev_reps = ref [] and nreps = ref 0 in
      let rep_of = Array.make full_len 0 in
      Array.iteri
        (fun i c ->
          let key = Schedule_enum.canonical c in
          match Hashtbl.find_opt tbl key with
          | Some r -> rep_of.(i) <- r
          | None ->
            let r = !nreps in
            Hashtbl.add tbl key r;
            incr nreps;
            rev_reps := i :: !rev_reps;
            rep_of.(i) <- r)
        cases;
      (Some (Array.of_list (List.rev !rev_reps)), rep_of)
    end
  in
  let cases =
    match reps with None -> cases | Some r -> Array.map (fun i -> cases.(i)) r
  in
  let len = Array.length cases in
  let domains = Ftss_profile.Pool.domains domains in
  let results = Array.make len None in
  (* Cases sharing their first rounds are adjacent in [order], so a batch
     simulates each shared prefix once. Each chunk starts its prefix walk
     afresh; the pool's chunks depend on [len] alone, so the rounds
     simulated do not depend on the domain count. *)
  let order = Schedule_enum.prefix_order cases in
  let stepped = Atomic.make 0 in
  (* The verdict cache, one per domain — no lock on the per-case path.
     A domain recomputing a fingerprint another domain has already seen
     produces the identical verdict, so per-domain caching costs at most
     that recomputation and never changes a result. The reported dedup
     statistics are not read from these caches: they are recomputed
     deterministically from the merged per-case fingerprints below. *)
  let caches = Array.init domains (fun _ -> Property.Fingerprint_table.create 256) in
  (* Per-domain counters, updated once per chunk so that domains do not
     write neighbouring slots once per case. *)
  let d_cases = Array.make domains 0 and d_states = Array.make domains 0 in
  let d_busy = Array.make domains 0. in
  let traced = Option.is_some obs in
  let emit ev = match obs with Some o -> Ftss_obs.Obs.emit o ev | None -> () in
  (* Obs.emit and Obs.with_metrics serialize on the hub mutex, so the
     worker domains may share one hub; event construction is guarded on
     [traced] to keep the no-hub path allocation-free. *)
  let work ~domain ~first ~limit =
    (* The clock is read once per chunk, not once per case. *)
    let t0 = Unix.gettimeofday () in
    let cache = caches.(domain) in
    (* [pos] is the position in [order] of the case being handed back. *)
    let pos = ref first and chunk_states = ref 0 in
    let case i (r : Property.run) =
      if traced then begin
        emit (Ftss_obs.Event.make ~time:i (Ftss_obs.Event.Case_start { case = i }));
        match obs with
        | Some o ->
          Ftss_obs.Obs.with_metrics o (fun m ->
              Ftss_obs.Metrics.lobserve
                (Ftss_obs.Metrics.lhist m "explore_queue_depth")
                (float_of_int (len - !pos)))
        | None -> ()
      end;
      incr pos;
      let verdict, hit = Property.cached_verdict cache r in
      chunk_states := !chunk_states + r.Property.states;
      if traced then
        emit
          (Ftss_obs.Event.make ~time:i
             (Ftss_obs.Event.Case_verdict
                {
                  case = i;
                  ok = verdict.Property.ok;
                  dedup = hit;
                  states = r.Property.states;
                }));
      results.(i) <-
        Some
          {
            fingerprint = r.Property.fingerprint;
            ok = verdict.Property.ok;
            detail = verdict.Property.detail;
            states = r.Property.states;
          }
    in
    let s =
      property.Property.run_batch cases (Array.sub order first (limit - first)) case
    in
    ignore (Atomic.fetch_and_add stepped s);
    d_cases.(domain) <- d_cases.(domain) + (limit - first);
    d_states.(domain) <- d_states.(domain) + !chunk_states;
    d_busy.(domain) <- d_busy.(domain) +. (Unix.gettimeofday () -. t0)
  in
  let t0 = Unix.gettimeofday () in
  Ftss_profile.Pool.run ?profile ~lane:"explore" ~domains len work;
  let elapsed = Unix.gettimeofday () -. t0 in
  let per_domain =
    Array.init domains (fun d ->
        { d_cases = d_cases.(d); d_states = d_states.(d); d_busy = d_busy.(d) })
  in
  let merge_lane = Option.map (fun t -> Prof.lane t "explore.main") profile in
  (match merge_lane with
  | Some l -> Prof.enter l Prof.Phase.chunk_merge
  | None -> ());
  let results =
    Array.map
      (function Some r -> r | None -> assert false (* every index was claimed *))
      results
  in
  (* Execution statistics (distinct fingerprints, dedup, simulated
     states) describe the runs actually performed — the orbit
     representatives under [canonical]; the verdicts are then scattered
     to every orbit member so the result array and violation indices
     stay aligned with the caller's case array either way. *)
  let seen = Property.Fingerprint_table.create (max 16 len) in
  let states = ref 0 in
  Array.iter
    (fun r ->
      Property.Fingerprint_table.replace seen r.fingerprint ();
      states := !states + r.states)
    results;
  let distinct = Property.Fingerprint_table.length seen in
  let results =
    match reps with
    | None -> results
    | Some _ -> Array.init full_len (fun i -> results.(rep_of.(i)))
  in
  let violations = ref [] in
  Array.iteri (fun i r -> if not r.ok then violations := i :: !violations) results;
  let stats =
    {
      cases = full_len;
      orbits = len;
      distinct;
      dedup_hits = len - distinct;
      violations = List.rev !violations;
      states = !states;
      stepped = Atomic.get stepped;
      elapsed;
      domains;
      per_domain;
    }
  in
  (match merge_lane with Some l -> ignore (Prof.leave l) | None -> ());
  (match obs with
  | None -> ()
  | Some o ->
    Ftss_obs.Obs.with_metrics o (fun m ->
        let set name v = Ftss_obs.Metrics.set (Ftss_obs.Metrics.gauge m name) v in
        set "explore_runs_per_sec"
          (if elapsed > 0. then float_of_int len /. elapsed else 0.);
        set "explore_states_per_sec"
          (if elapsed > 0. then float_of_int !states /. elapsed else 0.);
        Array.iteri
          (fun d ds ->
            set
              (Printf.sprintf "explore_domain_utilization.%d" d)
              (if elapsed > 0. then ds.d_busy /. elapsed else 0.))
          per_domain));
  (stats, results)

(* Throughput and dedup are rates over the runs actually executed — the
   orbit representatives; [orbits = cases] whenever canonicalization is
   off, so the historic meaning of every gauge is unchanged. *)
let runs_per_sec s = if s.elapsed > 0. then float_of_int s.orbits /. s.elapsed else 0.

let states_per_sec s =
  if s.elapsed > 0. then float_of_int s.states /. s.elapsed else 0.

let dedup_rate s =
  if s.orbits = 0 then 0. else float_of_int s.dedup_hits /. float_of_int s.orbits

let symmetry_reduction s =
  if s.orbits = 0 then 1. else float_of_int s.cases /. float_of_int s.orbits

let to_json s =
  let open Ftss_obs.Json in
  Obj
    [
      ("cases", Int s.cases);
      ("orbits", Int s.orbits);
      ("symmetry_reduction", Float (symmetry_reduction s));
      ("distinct", Int s.distinct);
      ("dedup_hits", Int s.dedup_hits);
      ("violations", List (List.map (fun i -> Int i) s.violations));
      ("states", Int s.states);
      ("stepped", Int s.stepped);
      ("elapsed", Float s.elapsed);
      ("domains", Int s.domains);
      ("runs_per_sec", Float (runs_per_sec s));
      ("states_per_sec", Float (states_per_sec s));
      ( "per_domain",
        List
          (Array.to_list
             (Array.map
                (fun d ->
                  Obj
                    [
                      ("cases", Int d.d_cases);
                      ("states", Int d.d_states);
                      ("busy", Float d.d_busy);
                      ( "utilization",
                        Float (if s.elapsed > 0. then d.d_busy /. s.elapsed else 0.) );
                    ])
                s.per_domain)) );
    ]

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>runs explored: %d, distinct traces: %d, dedup hits: %d (%.1f%%)@,"
    s.cases s.distinct s.dedup_hits
    (100. *. dedup_rate s);
  if s.orbits < s.cases then
    Format.fprintf ppf "orbit representatives: %d (%.2fx symmetry reduction)@,"
      s.orbits (symmetry_reduction s);
  Format.fprintf ppf
    "states simulated: %d@,\
     violations: %d@,\
     elapsed: %.3f s at %d domain%s (%.0f runs/s, %.0f states/s)"
    s.states
    (List.length s.violations)
    s.elapsed s.domains
    (if s.domains = 1 then "" else "s")
    (runs_per_sec s) (states_per_sec s);
  Array.iteri
    (fun d ds ->
      Format.fprintf ppf "@,  domain %d: %d cases, %d states, %.0f%% busy" d ds.d_cases
        ds.d_states
        (if s.elapsed > 0. then 100. *. ds.d_busy /. s.elapsed else 0.))
    s.per_domain;
  Format.fprintf ppf "@]"
