type counter = { mutable count : int }
type gauge = { mutable value : float }

(* Log-bucketed (HDR-style) histogram: geometric buckets at ratio
   2^(1/8), so every recorded value lands in a bucket within ~9% of its
   true magnitude. Bucket counts absorb every sample, so percentile
   estimates stay unbiased on unbounded streams (a first-N reservoir
   would skew them toward warm-up). Preallocated, O(1) observe,
   O(buckets) percentile. *)

let lhist_buckets = 256
let lhist_gamma = 2. ** 0.125
let lhist_log_gamma = log lhist_gamma

(* Relative half-width of a bucket: a percentile estimate is within this
   factor of some recorded sample. *)
let lhist_error = sqrt lhist_gamma -. 1.

type lhist = {
  mutable l_count : int;
  mutable l_sum : float;
  mutable l_min : float;
  mutable l_max : float;
  buckets : int array; (* bucket 0: v < 1; bucket k: gamma^(k-1) <= v < gamma^k *)
}

let lhist_create () =
  {
    l_count = 0;
    l_sum = 0.;
    l_min = infinity;
    l_max = neg_infinity;
    buckets = Array.make lhist_buckets 0;
  }

let lhist_bucket v =
  if v < 1. then 0
  else min (lhist_buckets - 1) (1 + int_of_float (log v /. lhist_log_gamma))

let lobserve h v =
  h.l_count <- h.l_count + 1;
  h.l_sum <- h.l_sum +. v;
  if v < h.l_min then h.l_min <- v;
  if v > h.l_max then h.l_max <- v;
  let b = lhist_bucket v in
  h.buckets.(b) <- h.buckets.(b) + 1

let lhist_merge into from =
  into.l_count <- into.l_count + from.l_count;
  into.l_sum <- into.l_sum +. from.l_sum;
  if from.l_min < into.l_min then into.l_min <- from.l_min;
  if from.l_max > into.l_max then into.l_max <- from.l_max;
  for b = 0 to lhist_buckets - 1 do
    into.buckets.(b) <- into.buckets.(b) + from.buckets.(b)
  done

let lhist_count h = h.l_count
let lhist_sum h = h.l_sum
let lhist_min h = if h.l_count = 0 then nan else h.l_min
let lhist_max h = if h.l_count = 0 then nan else h.l_max

(* Geometric midpoint of bucket [b] — the representative value a
   percentile query reports. *)
let lhist_value b = if b = 0 then 0. else lhist_gamma ** (float_of_int b -. 0.5)

let lpercentile h p =
  if p < 0. || p > 100. then invalid_arg "Metrics.lpercentile: p outside [0, 100]";
  if h.l_count = 0 then nan
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int h.l_count))) in
    let acc = ref 0 and b = ref 0 in
    while !acc < rank && !b < lhist_buckets do
      acc := !acc + h.buckets.(!b);
      incr b
    done;
    (* !b - 1 is the bucket holding the rank-th sample; clamp the bucket
       midpoint by the exact extremes so tails never overshoot. *)
    max h.l_min (min h.l_max (lhist_value (!b - 1)))
  end

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  lhists : (string, lhist) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    lhists = Hashtbl.create 8;
  }

let is_empty t =
  Hashtbl.length t.counters = 0
  && Hashtbl.length t.gauges = 0
  && Hashtbl.length t.lhists = 0

let get_or_create table name fresh =
  match Hashtbl.find_opt table name with
  | Some v -> v
  | None ->
    let v = fresh () in
    Hashtbl.add table name v;
    v

let counter t name = get_or_create t.counters name (fun () -> { count = 0 })
let inc c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let counter_value c = c.count

let gauge t name = get_or_create t.gauges name (fun () -> { value = 0. })
let set g v = g.value <- v
let gauge_value g = g.value

let lhist t name = get_or_create t.lhists name lhist_create

(* --- standard derivations from the event taxonomy --- *)

let link name src dst = Printf.sprintf "%s.%d->%d" name src dst

let record_event t ev =
  match ev.Event.body with
  | Event.Round_begin -> inc (counter t "rounds")
  | Event.Round_end -> ()
  | Event.Send _ -> inc (counter t "messages_sent")
  | Event.Deliver { src; dst } ->
    inc (counter t "messages_delivered");
    inc (counter t (link "link_delivered" src dst))
  | Event.Drop { src; dst; _ } ->
    inc (counter t "messages_dropped");
    inc (counter t (link "link_dropped" src dst))
  | Event.Crash _ -> inc (counter t "crashes")
  | Event.Corrupt _ -> inc (counter t "corruptions")
  | Event.Suspect_add _ ->
    inc (counter t "suspicions_added");
    inc (counter t "suspicion_churn")
  | Event.Suspect_remove _ ->
    inc (counter t "suspicions_removed");
    inc (counter t "suspicion_churn")
  | Event.Decide _ -> inc (counter t "decisions")
  | Event.Window_open -> inc (counter t "stable_windows")
  | Event.Window_close { measured; _ } ->
    lobserve (lhist t "stabilization") (float_of_int measured)
  | Event.Case_start _ -> inc (counter t "checker_cases_started")
  | Event.Case_verdict { ok; dedup; states; _ } ->
    inc (counter t "checker_cases");
    if not ok then inc (counter t "checker_violations");
    if dedup then inc (counter t "checker_dedup_hits");
    add (counter t "checker_states") states
  | Event.Coverage { execs; corpus; points } ->
    inc (counter t "fuzz_coverage_growth");
    set (gauge t "fuzz_execs") (float_of_int execs);
    set (gauge t "fuzz_corpus") (float_of_int corpus);
    set (gauge t "fuzz_coverage_points") (float_of_int points)
  | Event.Submit { ops; _ } -> add (counter t "ops_submitted") ops
  | Event.Commit { ops; _ } ->
    inc (counter t "slots_committed");
    add (counter t "ops_committed") ops
  | Event.Apply _ -> inc (counter t "slots_applied")
  | Event.Recover { slots; _ } ->
    inc (counter t "recoveries");
    lobserve (lhist t "recovery_slots") (float_of_int slots)

(* --- export --- *)

let sorted_bindings table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let lhist_json h =
  if h.l_count = 0 then Json.Obj [ ("count", Json.Int 0); ("kind", Json.String "logbucket") ]
  else
    Json.Obj
      [
        ("count", Json.Int h.l_count);
        ("sum", Json.Float h.l_sum);
        ("min", Json.Float h.l_min);
        ("max", Json.Float h.l_max);
        ("mean", Json.Float (h.l_sum /. float_of_int h.l_count));
        ("p50", Json.Float (lpercentile h 50.));
        ("p95", Json.Float (lpercentile h 95.));
        ("p99", Json.Float (lpercentile h 99.));
        ("p999", Json.Float (lpercentile h 99.9));
        ("kind", Json.String "logbucket");
      ]

let to_json t =
  let histograms =
    List.map (fun (k, h) -> (k, lhist_json h)) (sorted_bindings t.lhists)
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map (fun (k, c) -> (k, Json.Int c.count)) (sorted_bindings t.counters)) );
      ( "gauges",
        Json.Obj
          (List.map (fun (k, g) -> (k, Json.Float g.value)) (sorted_bindings t.gauges)) );
      ("histograms", Json.Obj histograms);
    ]

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>";
  let first = ref true in
  let cut () = if !first then first := false else Format.fprintf ppf "@," in
  List.iter
    (fun (k, c) ->
      cut ();
      Format.fprintf ppf "%-32s %d" k c.count)
    (sorted_bindings t.counters);
  List.iter
    (fun (k, g) ->
      cut ();
      Format.fprintf ppf "%-32s %.3f" k g.value)
    (sorted_bindings t.gauges);
  List.iter
    (fun (k, h) ->
      cut ();
      if h.l_count = 0 then Format.fprintf ppf "%-32s (empty)" k
      else
        Format.fprintf ppf "%-32s count=%d mean=%.2f min=%.0f max=%.0f p99=%.0f" k
          h.l_count
          (h.l_sum /. float_of_int h.l_count)
          h.l_min h.l_max (lpercentile h 99.))
    (sorted_bindings t.lhists);
  Format.fprintf ppf "@]"
