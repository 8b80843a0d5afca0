type phase = int

(* The closed phase registry. Adding a phase means adding it here, to the
   name table, and to the coalesced table — nowhere else; every consumer
   (summary, folded stacks, Chrome export, bench gauges, the CI coverage
   smoke) iterates the registry. *)
module Phase = struct
  let chunk_claim = 0
  let chunk_execute = 1
  let chunk_merge = 2
  let sim_pop = 3
  let sim_dispatch = 4
  let sim_deliver = 5
  let svc_slot = 6
  let svc_integrity = 7
  let svc_audit = 8
  let svc_catchup = 9
  let svc_gossip = 10
  let fuzz_seed = 11
  let fuzz_mutate = 12
  let fuzz_verify = 13
  let count = 14
  let all = List.init count Fun.id

  let names =
    [|
      "chunk_claim";
      "chunk_execute";
      "chunk_merge";
      "sim_pop";
      "sim_dispatch";
      "sim_deliver";
      "svc_slot";
      "svc_integrity";
      "svc_audit";
      "svc_catchup";
      "svc_gossip";
      "fuzz_seed";
      "fuzz_mutate";
      "fuzz_verify";
    |]

  let name p = names.(p)

  (* Per-event hot paths store aggregated window slices; everything else
     buffers one span per call. *)
  let coalesced_tbl =
    [|
      true (* chunk_claim: one fetch_and_add, ~20 ns *);
      false;
      false;
      true;
      true;
      true;
      true (* svc_slot: per consensus message *);
      true (* svc_integrity: per guard-mismatch recovery *);
      false;
      false;
      true (* svc_gossip: per Tag message *);
      false;
      false;
      false;
    |]

  let coalesced p = coalesced_tbl.(p)
end

external now_ns : unit -> int = "ftss_profile_now_ns" [@@noalloc]

let max_depth = 64
let stride = 6 (* phase, t0, t1, minor words, major words, call count *)
let window_ns = 10_000_000 (* coalesced slices flush every ~10 ms *)

type lane = {
  l_name : string;
  group : string; (* prefix before the first '.', the Chrome process row *)
  armed : bool;
  (* exact accumulators: self-time per (parent+1, phase) edge — parent -1
     is "root" — plus per-phase calls and allocation words *)
  edge_ns : int array; (* (Phase.count + 1) * Phase.count *)
  calls : int array;
  minor_w : float array;
  major_w : float array;
  (* the frame stack *)
  st_phase : int array;
  st_t0 : int array;
  st_child : int array;
  st_minor0 : float array;
  st_cminor : float array;
  st_major0 : float array;
  mutable depth : int;
  (* the span buffer: flat ints, [stride] per span *)
  mutable spans : int array;
  mutable slen : int;
  max_ints : int;
  mutable dropped : int;
  (* the open coalescing window *)
  mutable win_t0 : int;
  win_ns : int array;
  win_calls : int array;
  win_minor : float array;
  (* lane lifetime *)
  mutable t_first : int;
  mutable t_last : int;
}

type t = {
  on : bool;
  mutable lanes : lane list; (* reversed creation order *)
  mu : Mutex.t;
}

let max_spans_per_lane = 65536
let create ?(enabled = true) () = { on = enabled; lanes = []; mu = Mutex.create () }

let enabled t = t.on

let group_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let make_lane t name =
  {
    l_name = name;
    group = group_of name;
    armed = t.on;
    edge_ns = Array.make ((Phase.count + 1) * Phase.count) 0;
    calls = Array.make Phase.count 0;
    minor_w = Array.make Phase.count 0.0;
    major_w = Array.make Phase.count 0.0;
    st_phase = Array.make max_depth 0;
    st_t0 = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_minor0 = Array.make max_depth 0.0;
    st_cminor = Array.make max_depth 0.0;
    st_major0 = Array.make max_depth 0.0;
    depth = 0;
    spans = Array.make (min (4096 * stride) (max_spans_per_lane * stride)) 0;
    slen = 0;
    max_ints = max_spans_per_lane * stride;
    dropped = 0;
    win_t0 = 0;
    win_ns = Array.make Phase.count 0;
    win_calls = Array.make Phase.count 0;
    win_minor = Array.make Phase.count 0.0;
    t_first = 0;
    t_last = 0;
  }

let lane t name =
  Mutex.lock t.mu;
  let l =
    match List.find_opt (fun l -> l.l_name = name) t.lanes with
    | Some l -> l
    | None ->
      let l = make_lane t name in
      t.lanes <- l :: t.lanes;
      l
  in
  Mutex.unlock t.mu;
  l

let lanes t = List.rev_map (fun l -> l.l_name) t.lanes

(* --- recording --- *)

let push_span l p t0 t1 minor major cnt =
  let len = Array.length l.spans in
  if l.slen + stride > len && len < l.max_ints then begin
    let spans = Array.make (min l.max_ints (2 * len)) 0 in
    Array.blit l.spans 0 spans 0 l.slen;
    l.spans <- spans
  end;
  if l.slen + stride <= Array.length l.spans then begin
    let s = l.spans and i = l.slen in
    s.(i) <- p;
    s.(i + 1) <- t0;
    s.(i + 2) <- t1;
    s.(i + 3) <- minor;
    s.(i + 4) <- major;
    s.(i + 5) <- cnt;
    l.slen <- l.slen + stride
  end
  else l.dropped <- l.dropped + cnt

(* Lay the window's per-phase self-time out as adjacent slices from the
   window start: Σ self ≤ elapsed window, so slices never overrun it. *)
let flush_window l now =
  let cursor = ref l.win_t0 in
  for p = 0 to Phase.count - 1 do
    if l.win_calls.(p) > 0 then begin
      push_span l p !cursor (!cursor + l.win_ns.(p))
        (int_of_float l.win_minor.(p))
        0 l.win_calls.(p);
      cursor := !cursor + l.win_ns.(p);
      l.win_ns.(p) <- 0;
      l.win_calls.(p) <- 0;
      l.win_minor.(p) <- 0.0
    end
  done;
  l.win_t0 <- now

let first_activity l at =
  l.t_first <- at;
  l.win_t0 <- at

let enter_at l p ~at =
  if l.armed then begin
    let d = l.depth in
    if d < max_depth then begin
      if l.t_first = 0 then first_activity l at;
      l.st_phase.(d) <- p;
      l.st_child.(d) <- 0;
      l.st_cminor.(d) <- 0.0;
      l.st_minor0.(d) <- Gc.minor_words ();
      if not (Phase.coalesced p) then
        l.st_major0.(d) <- (Gc.quick_stat ()).Gc.major_words;
      l.st_t0.(d) <- at
    end;
    l.depth <- d + 1
  end

let enter l p =
  if l.armed then enter_at l p ~at:(now_ns ())

(* Inlined so the two float counts stay unboxed: a boxed argument would
   allocate after [leave] has read [Gc.minor_words], charging the words
   to the enclosing span. *)
let[@inline] record l d p t0 t1 dur self dminor self_minor =
  let parent = if d > 0 then l.st_phase.(d - 1) else -1 in
  let e = ((parent + 1) * Phase.count) + p in
  l.edge_ns.(e) <- l.edge_ns.(e) + self;
  l.calls.(p) <- l.calls.(p) + 1;
  l.minor_w.(p) <- l.minor_w.(p) +. self_minor;
  if d > 0 then begin
    l.st_child.(d - 1) <- l.st_child.(d - 1) + dur;
    l.st_cminor.(d - 1) <- l.st_cminor.(d - 1) +. dminor
  end;
  if Phase.coalesced p then begin
    l.win_ns.(p) <- l.win_ns.(p) + self;
    l.win_calls.(p) <- l.win_calls.(p) + 1;
    l.win_minor.(p) <- l.win_minor.(p) +. self_minor;
    if d = 0 && t1 - l.win_t0 >= window_ns then flush_window l t1
  end
  else push_span l p t0 t1 (int_of_float dminor) 0 1;
  l.t_last <- t1

let leave l =
  if (not l.armed) || l.depth = 0 then 0
  else begin
    let d = l.depth - 1 in
    l.depth <- d;
    if d >= max_depth then 0
    else begin
      let t1 = now_ns () in
      let minor1 = Gc.minor_words () in
      let p = l.st_phase.(d) in
      let t0 = l.st_t0.(d) in
      let dur = max 0 (t1 - t0) in
      let self = max 0 (dur - l.st_child.(d)) in
      let dminor = Float.max 0.0 (minor1 -. l.st_minor0.(d)) in
      let self_minor = Float.max 0.0 (dminor -. l.st_cminor.(d)) in
      record l d p t0 t1 dur self dminor self_minor;
      if not (Phase.coalesced p) then begin
        let major1 = (Gc.quick_stat ()).Gc.major_words in
        l.major_w.(p) <- l.major_w.(p) +. Float.max 0.0 (major1 -. l.st_major0.(d))
      end;
      t1
    end
  end

let lap l p ~since =
  if not l.armed then since
  else begin
    let t1 = now_ns () in
    if l.t_first = 0 then first_activity l since;
    let dur = max 0 (t1 - since) in
    let d = l.depth in
    let parent = if d > 0 && d <= max_depth then l.st_phase.(d - 1) else -1 in
    let e = ((parent + 1) * Phase.count) + p in
    l.edge_ns.(e) <- l.edge_ns.(e) + dur;
    l.calls.(p) <- l.calls.(p) + 1;
    if d > 0 && d <= max_depth then l.st_child.(d - 1) <- l.st_child.(d - 1) + dur;
    if Phase.coalesced p then begin
      l.win_ns.(p) <- l.win_ns.(p) + dur;
      l.win_calls.(p) <- l.win_calls.(p) + 1;
      if d = 0 && t1 - l.win_t0 >= window_ns then flush_window l t1
    end
    else push_span l p since t1 0 0 1;
    l.t_last <- t1;
    t1
  end

(* --- export --- *)

(* Export runs after the instrumented work has quiesced; flush under the
   registry mutex so no half-open window survives into the timeline. *)
let quiesce t =
  Mutex.lock t.mu;
  let ls = List.rev t.lanes in
  Mutex.unlock t.mu;
  List.iter (fun l -> if l.t_last > l.win_t0 then flush_window l l.t_last) ls;
  ls

let self_ns_of l p =
  let acc = ref 0 in
  for parent = 0 to Phase.count do
    acc := !acc + l.edge_ns.((parent * Phase.count) + p)
  done;
  !acc

type phase_total = {
  pt_phase : phase;
  pt_calls : int;
  pt_self_ns : int;
  pt_minor_words : float;
  pt_major_words : float;
}

let totals t =
  let ls = quiesce t in
  let tot =
    List.map
      (fun p ->
        List.fold_left
          (fun acc l ->
            {
              acc with
              pt_calls = acc.pt_calls + l.calls.(p);
              pt_self_ns = acc.pt_self_ns + self_ns_of l p;
              pt_minor_words = acc.pt_minor_words +. l.minor_w.(p);
              pt_major_words = acc.pt_major_words +. l.major_w.(p);
            })
          { pt_phase = p; pt_calls = 0; pt_self_ns = 0; pt_minor_words = 0.; pt_major_words = 0. }
          ls)
      Phase.all
  in
  List.filter (fun pt -> pt.pt_calls > 0) tot
  |> List.sort (fun a b -> compare b.pt_self_ns a.pt_self_ns)

let dropped_spans t =
  List.fold_left (fun acc l -> acc + l.dropped) 0 (quiesce t)

let lane_wall l = if l.t_first = 0 then 0 else max 0 (l.t_last - l.t_first)

let wall_ns t =
  let ls = quiesce t in
  let first =
    List.fold_left
      (fun acc l -> if l.t_first > 0 then min acc l.t_first else acc)
      max_int ls
  and last = List.fold_left (fun acc l -> max acc l.t_last) 0 ls in
  if first = max_int then 0 else max 0 (last - first)

let check t =
  let ls = quiesce t in
  List.filter_map
    (fun l ->
      let sum = List.fold_left (fun acc p -> acc + self_ns_of l p) 0 Phase.all in
      let wall = lane_wall l in
      if sum > wall then Some (l.l_name, sum, wall) else None)
    ls

let chrome_json t =
  let open Ftss_obs.Json in
  let ls = quiesce t in
  let base =
    List.fold_left
      (fun acc l -> if l.t_first > 0 then min acc l.t_first else acc)
      max_int ls
  in
  let base = if base = max_int then 0 else base in
  let groups =
    List.fold_left
      (fun acc l -> if List.mem l.group acc then acc else acc @ [ l.group ])
      [] ls
  in
  let pid_of g =
    let rec go i = function
      | [] -> 0
      | g' :: _ when g' = g -> i
      | _ :: tl -> go (i + 1) tl
    in
    1 + go 0 groups
  in
  let us ns = float_of_int ns /. 1e3 in
  let events = ref [] in
  let push e = events := e :: !events in
  List.iteri
    (fun i g ->
      ignore i;
      push
        (Obj
           [
             ("ph", String "M");
             ("name", String "process_name");
             ("pid", Int (pid_of g));
             ("args", Obj [ ("name", String g) ]);
           ]))
    groups;
  List.iteri
    (fun i l ->
      push
        (Obj
           [
             ("ph", String "M");
             ("name", String "thread_name");
             ("pid", Int (pid_of l.group));
             ("tid", Int (i + 1));
             ("args", Obj [ ("name", String l.l_name) ]);
           ]))
    ls;
  List.iteri
    (fun i l ->
      let s = l.spans in
      let k = ref 0 in
      while !k < l.slen do
        let p = s.(!k) and t0 = s.(!k + 1) and t1 = s.(!k + 2) in
        let minor = s.(!k + 3) and major = s.(!k + 4) and cnt = s.(!k + 5) in
        push
          (Obj
             [
               ("ph", String "X");
               ("name", String (Phase.name p));
               ("cat", String (if Phase.coalesced p then "slice" else "span"));
               ("pid", Int (pid_of l.group));
               ("tid", Int (i + 1));
               ("ts", Float (us (t0 - base)));
               ("dur", Float (us (t1 - t0)));
               ( "args",
                 Obj
                   [
                     ("count", Int cnt);
                     ("minor_words", Int minor);
                     ("major_words", Int major);
                   ] );
             ]);
        k := !k + stride
      done)
    ls;
  Obj
    [
      ("displayTimeUnit", String "ms");
      ("traceEvents", List (List.rev !events));
    ]

let folded t =
  let ls = quiesce t in
  let buf = Buffer.create 1024 in
  List.iter
    (fun l ->
      for parent = -1 to Phase.count - 1 do
        for p = 0 to Phase.count - 1 do
          let ns = l.edge_ns.(((parent + 1) * Phase.count) + p) in
          if ns > 0 then
            if parent < 0 then
              Buffer.add_string buf (Printf.sprintf "%s;%s %d\n" l.l_name (Phase.name p) ns)
            else
              Buffer.add_string buf
                (Printf.sprintf "%s;%s;%s %d\n" l.l_name (Phase.name parent) (Phase.name p)
                   ns)
        done
      done)
    ls;
  Buffer.contents buf

let gauges t =
  let tot = totals t in
  let gs =
    List.concat_map
      (fun pt ->
        let n = Phase.name pt.pt_phase in
        [
          (* "ms", not "seconds": bench-diff's name convention would gate
             a "seconds" gauge as Lower_better, but attribution shares
             move with the workload mix — regressions surface through the
             run's committed_ops_per_sec instead. *)
          (Printf.sprintf "profile_self_ms.%s" n, float_of_int pt.pt_self_ns /. 1e6);
          (Printf.sprintf "profile_calls.%s" n, float_of_int pt.pt_calls);
          (Printf.sprintf "profile_minor_words.%s" n, pt.pt_minor_words);
        ])
      tot
  in
  gs @ [ ("profile_dropped_spans", float_of_int (dropped_spans t)) ]

let pp_summary ppf t =
  let tot = totals t in
  let total_ns = List.fold_left (fun acc pt -> acc + pt.pt_self_ns) 0 tot in
  let wall = wall_ns t in
  Format.fprintf ppf "@[<v>%-14s %12s %12s %6s %14s %14s@," "phase" "calls" "self ms"
    "%" "minor words" "major words";
  List.iter
    (fun pt ->
      Format.fprintf ppf "%-14s %12d %12.3f %5.1f%% %14.0f %14.0f@,"
        (Phase.name pt.pt_phase) pt.pt_calls
        (float_of_int pt.pt_self_ns /. 1e6)
        (if total_ns > 0 then 100. *. float_of_int pt.pt_self_ns /. float_of_int total_ns
         else 0.)
        pt.pt_minor_words pt.pt_major_words)
    tot;
  Format.fprintf ppf "profiled %.3f ms of %.3f ms wall across %d lane%s"
    (float_of_int total_ns /. 1e6)
    (float_of_int wall /. 1e6)
    (List.length (lanes t))
    (if List.length (lanes t) = 1 then "" else "s");
  (let d = dropped_spans t in
   if d > 0 then Format.fprintf ppf "@,(%d spans dropped at the buffer cap)" d);
  Format.fprintf ppf "@]"
