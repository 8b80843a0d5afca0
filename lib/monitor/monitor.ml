module Event = Ftss_obs.Event
module Metrics = Ftss_obs.Metrics
module Obs = Ftss_obs.Obs
module Sink = Ftss_obs.Sink

(* Streaming runtime verification: a set of incremental monitors that
   subscribe to the Obs hub and maintain O(1)-per-event state, turning
   the paper's after-the-fact measurements (stabilization time d,
   heal time, omission rates) into online SLOs with alarms.

   Every monitor tracks its quantity unconditionally (the watch
   dashboard reads them); a monitor *alarms* only when its budget is
   set. Alarm storms are damped structurally: the heal watchdog fires
   once per replica per corruption episode, the latency and churn
   monitors once per run, the omission monitor once per link, and the
   stabilization monitor once per fault epoch. *)

type budgets = {
  stab : int option;
      (* Definition 2.4 as an SLO: max ticks between the last fault event
         and the last repair episode it causes *)
  heal : int option; (* max ticks a corrupted replica may go without applying *)
  p99 : float option; (* commit-latency p99 budget, ticks *)
  drop_rate : float option; (* per-link omission EWMA threshold, 0..1 *)
  churn : float option; (* suspicion-churn EWMA threshold, events/tick *)
}

let no_budgets = { stab = None; heal = None; p99 = None; drop_rate = None; churn = None }

(* "key=value,key=value"; keys: stab, heal, p99, drop, churn. *)
let budgets_of_string s =
  let parse_field acc field =
    match acc with
    | Error _ as e -> e
    | Ok b -> (
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "budget %S: expected key=value" field)
      | Some i -> (
        let key = String.sub field 0 i in
        let value = String.sub field (i + 1) (String.length field - i - 1) in
        let int_v k =
          match int_of_string_opt value with
          | Some v when v >= 0 -> Ok v
          | _ -> Error (Printf.sprintf "budget %s=%S: expected a non-negative integer" k value)
        in
        let float_v k =
          match float_of_string_opt value with
          | Some v when v >= 0. -> Ok v
          | _ -> Error (Printf.sprintf "budget %s=%S: expected a non-negative number" k value)
        in
        match key with
        | "stab" -> Result.map (fun v -> { b with stab = Some v }) (int_v key)
        | "heal" -> Result.map (fun v -> { b with heal = Some v }) (int_v key)
        | "p99" -> Result.map (fun v -> { b with p99 = Some v }) (float_v key)
        | "drop" -> Result.map (fun v -> { b with drop_rate = Some v }) (float_v key)
        | "churn" -> Result.map (fun v -> { b with churn = Some v }) (float_v key)
        | _ ->
          Error
            (Printf.sprintf "budget key %S: expected stab, heal, p99, drop or churn" key)))
  in
  let fields = String.split_on_char ',' (String.trim s) in
  let fields = List.filter (fun f -> String.trim f <> "") (List.map String.trim fields) in
  if fields = [] then Error "empty budget spec"
  else List.fold_left parse_field (Ok no_budgets) fields

type alarm = { monitor : string; time : int; detail : string; event : Event.t }

(* Omission EWMA weight per delivery outcome, and the suspicion-churn
   rate estimator's time constant in ticks. *)
let drop_alpha = 0.02
let churn_tau = 100.
let p99_check_every = 256
let max_kept_alarms = 64

type t = {
  n : int;
  budgets : budgets;
  (* flight-recorder ring: events stored UNBOXED in a flat int array
     (stride 4: time and constructor tag packed in one word, 3 payload
     ints), decoded only on snapshot. A boxed [Event.t array] ring
     promotes every retained event out of the minor heap and pays a
     write barrier per push — measured at >10% of tower throughput; the
     flat encoding is plain immediate stores. *)
  ring_data : int array;
  ring_cap : int;
  mutable ring_pos : int; (* next slot index *)
  mutable ring_pushed : int;
  (* fault-quiescence window tracker (stab) *)
  mutable last_fault : int; (* -1 = no fault seen *)
  mutable measured_d : int;
  mutable stab_alarm_epoch : int; (* last_fault value already alarmed for *)
  (* TOB divergence / heal-time watchdog (heal) *)
  corrupt_at : int array; (* per pid; -1 = clean *)
  heal_alarmed : bool array;
  mutable dirty : int;
  mutable earliest_dirty : int; (* min corrupt_at over dirty, unalarmed pids *)
  heal_hist : Metrics.lhist;
  mutable worst_heal : int;
  (* streaming commit-latency quantiles (p99) *)
  out_since : int array; (* per pid; -1 = nothing outstanding *)
  lat : Metrics.lhist;
  mutable lat_since_check : int;
  mutable p99_alarmed : bool;
  (* per-link omission-rate EWMA (drop) *)
  drop_ewma : float array; (* src * n + dst *)
  link_alarmed : bool array;
  mutable worst_drop : float;
  mutable worst_drop_link : int;
  (* suspicion-churn EWMA (churn) *)
  mutable churn_ewma : float; (* events per tick *)
  mutable churn_last : int;
  mutable churn_alarmed : bool;
  (* dashboard census *)
  mutable now : int;
  mutable ops_submitted : int;
  mutable ops_committed : int;
  mutable slots : int;
  mutable recoveries : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable crashes : int;
  mutable corruptions : int;
  mutable suspect_adds : int;
  mutable suspect_removes : int;
  (* instantaneous-throughput window, reset by each dashboard render *)
  mutable win_ops : int;
  mutable win_start : int;
  (* alarms *)
  mutable alarms_rev : alarm list;
  mutable alarm_count : int;
  fired : (string, int) Hashtbl.t; (* alarms per monitor, uncapped *)
  mutable on_alarm : t -> alarm -> unit;
  (* periodic hook (dashboard refresh, OpenMetrics export) *)
  mutable every : int; (* 0 = no interval hook *)
  mutable next_fire : int;
  mutable on_interval : t -> time:int -> unit;
}

let ring_stride = 4

(* Default sized to stay L2-resident (8192 * 6 ints = 384KB): a ring
   that cycles through megabytes of cache costs a miss per push. *)
let create ?(ring_capacity = 8_192) ~n budgets =
  if ring_capacity < 1 then invalid_arg "Monitor.create: ring_capacity < 1";
  {
    n;
    budgets;
    ring_data = Array.make (ring_capacity * ring_stride) 0;
    ring_cap = ring_capacity;
    ring_pos = 0;
    ring_pushed = 0;
    last_fault = -1;
    measured_d = 0;
    stab_alarm_epoch = -1;
    corrupt_at = Array.make n (-1);
    heal_alarmed = Array.make n false;
    dirty = 0;
    earliest_dirty = max_int;
    heal_hist = Metrics.lhist_create ();
    worst_heal = 0;
    out_since = Array.make n (-1);
    lat = Metrics.lhist_create ();
    lat_since_check = 0;
    p99_alarmed = false;
    drop_ewma = Array.make (n * n) 0.;
    link_alarmed = Array.make (n * n) false;
    worst_drop = 0.;
    worst_drop_link = -1;
    churn_ewma = 0.;
    churn_last = 0;
    churn_alarmed = false;
    now = 0;
    ops_submitted = 0;
    ops_committed = 0;
    slots = 0;
    recoveries = 0;
    delivered = 0;
    dropped = 0;
    crashes = 0;
    corruptions = 0;
    suspect_adds = 0;
    suspect_removes = 0;
    win_ops = 0;
    win_start = 0;
    alarms_rev = [];
    alarm_count = 0;
    fired = Hashtbl.create 5;
    on_alarm = (fun _ _ -> ());
    every = 0;
    next_fire = 0;
    on_interval = (fun _ ~time:_ -> ());
  }

let alarm_count t = t.alarm_count
(* Option-int payloads encode [None] as -1 (pids are non-negative);
   bools as 0/1. Tag order matches the [Event.body] declaration. *)
let ring_push t (ev : Event.t) =
  let d = t.ring_data in
  let base = t.ring_pos * ring_stride in
  let time = ev.Event.time in
  let set tag a b c =
    d.(base) <- (time lsl 5) lor tag;
    d.(base + 1) <- a;
    d.(base + 2) <- b;
    d.(base + 3) <- c
  in
  (match ev.Event.body with
  | Event.Round_begin -> set 0 0 0 0
  | Event.Round_end -> set 1 0 0 0
  | Event.Send { src; dst } ->
    set 2 src (match dst with Some p -> p | None -> -1) 0
  | Event.Deliver { src; dst } -> set 3 src dst 0
  | Event.Drop { src; dst; blame } ->
    set 4 src dst (match blame with Some p -> p | None -> -1)
  | Event.Crash { pid } -> set 5 pid 0 0
  | Event.Corrupt { pid } -> set 6 pid 0 0
  | Event.Suspect_add { observer; subject } -> set 7 observer subject 0
  | Event.Suspect_remove { observer; subject } -> set 8 observer subject 0
  | Event.Decide { pid; instance; value } -> set 9 pid instance value
  | Event.Window_open -> set 10 0 0 0
  | Event.Window_close { opened; measured } -> set 11 opened measured 0
  | Event.Case_start { case } -> set 12 case 0 0
  | Event.Case_verdict { case; ok; dedup; states } ->
    set 13 case ((if ok then 1 else 0) lor if dedup then 2 else 0) states
  | Event.Coverage { execs; corpus; points } -> set 14 execs corpus points
  | Event.Submit { pid; ops } -> set 15 pid ops 0
  | Event.Commit { pid; slot; ops } -> set 16 pid slot ops
  | Event.Apply { pid; slot; digest } -> set 17 pid slot digest
  | Event.Recover { pid; slots } -> set 18 pid slots 0);
  let p = t.ring_pos + 1 in
  t.ring_pos <- (if p = t.ring_cap then 0 else p);
  t.ring_pushed <- t.ring_pushed + 1

let decode_slot d base =
  let time = d.(base) asr 5 in
  let a = d.(base + 1) and b = d.(base + 2) and c = d.(base + 3) in
  let opt v = if v < 0 then None else Some v in
  let body =
    match d.(base) land 31 with
    | 0 -> Event.Round_begin
    | 1 -> Event.Round_end
    | 2 -> Event.Send { src = a; dst = opt b }
    | 3 -> Event.Deliver { src = a; dst = b }
    | 4 -> Event.Drop { src = a; dst = b; blame = opt c }
    | 5 -> Event.Crash { pid = a }
    | 6 -> Event.Corrupt { pid = a }
    | 7 -> Event.Suspect_add { observer = a; subject = b }
    | 8 -> Event.Suspect_remove { observer = a; subject = b }
    | 9 -> Event.Decide { pid = a; instance = b; value = c }
    | 10 -> Event.Window_open
    | 11 -> Event.Window_close { opened = a; measured = b }
    | 12 -> Event.Case_start { case = a }
    | 13 ->
      Event.Case_verdict
        { case = a; ok = b land 1 = 1; dedup = b land 2 = 2; states = c }
    | 14 -> Event.Coverage { execs = a; corpus = b; points = c }
    | 15 -> Event.Submit { pid = a; ops = b }
    | 16 -> Event.Commit { pid = a; slot = b; ops = c }
    | 17 -> Event.Apply { pid = a; slot = b; digest = c }
    | 18 -> Event.Recover { pid = a; slots = b }
    | tag -> invalid_arg (Printf.sprintf "Monitor: corrupt ring tag %d" tag)
  in
  Event.make ~time body

let ring_events t =
  let count = min t.ring_pushed t.ring_cap in
  let start = if t.ring_pushed <= t.ring_cap then 0 else t.ring_pos in
  List.init count (fun i ->
      decode_slot t.ring_data (((start + i) mod t.ring_cap) * ring_stride))

let ring_seen t = t.ring_pushed
let set_on_alarm t f = t.on_alarm <- f

let set_interval t ~every f =
  if every < 1 then invalid_arg "Monitor.set_interval: every < 1";
  t.every <- every;
  t.next_fire <- every;
  t.on_interval <- f

let fired t monitor = Option.value ~default:0 (Hashtbl.find_opt t.fired monitor)

let raise_alarm t ~monitor ~time ~detail event =
  t.alarm_count <- t.alarm_count + 1;
  Hashtbl.replace t.fired monitor (fired t monitor + 1);
  let a = { monitor; time; detail; event } in
  if t.alarm_count <= max_kept_alarms then t.alarms_rev <- a :: t.alarms_rev;
  t.on_alarm t a

(* min corrupt time over dirty pids not yet alarmed — recomputed only
   when a pid heals or alarms, O(n) amortized over rare transitions. *)
let recompute_earliest_dirty t =
  let best = ref max_int in
  for p = 0 to t.n - 1 do
    if t.corrupt_at.(p) >= 0 && not t.heal_alarmed.(p) && t.corrupt_at.(p) < !best then
      best := t.corrupt_at.(p)
  done;
  t.earliest_dirty <- !best

let note_fault t time = if time > t.last_fault then t.last_fault <- time

let clear_dirty t p =
  if t.corrupt_at.(p) >= 0 then begin
    t.corrupt_at.(p) <- -1;
    t.heal_alarmed.(p) <- false;
    t.dirty <- t.dirty - 1;
    recompute_earliest_dirty t
  end

(* The heal watchdog's overdue branch: a replica that has not applied
   since its corruption, checked lazily against the current event time.
   Fires once per replica per episode. *)
let check_overdue t time ev =
  match t.budgets.heal with
  | Some b when t.dirty > 0 && t.earliest_dirty < max_int && time > t.earliest_dirty + b ->
    for p = 0 to t.n - 1 do
      if t.corrupt_at.(p) >= 0 && (not t.heal_alarmed.(p)) && time > t.corrupt_at.(p) + b
      then begin
        t.heal_alarmed.(p) <- true;
        raise_alarm t ~monitor:"heal" ~time
          ~detail:
            (Printf.sprintf
               "replica %d still unhealed %d ticks after corruption at t=%d (budget %d)"
               p
               (time - t.corrupt_at.(p))
               t.corrupt_at.(p) b)
          ev
      end
    done;
    recompute_earliest_dirty t
  | _ -> ()

let check_p99 t time ev =
  match t.budgets.p99 with
  | Some b when not t.p99_alarmed ->
    let p99 = Metrics.lpercentile t.lat 99. in
    if p99 > b then begin
      t.p99_alarmed <- true;
      raise_alarm t ~monitor:"latency_p99" ~time
        ~detail:
          (Printf.sprintf "commit-latency p99=%.0f ticks exceeds budget %.0f (%d samples)"
             p99 b (Metrics.lhist_count t.lat))
        ev
    end
  | _ -> ()

let observe_link t ~src ~dst ~dropped time ev =
  if src <> dst && src < t.n && dst < t.n then begin
    let i = (src * t.n) + dst in
    let x = if dropped then 1. else 0. in
    let e = ((1. -. drop_alpha) *. t.drop_ewma.(i)) +. (drop_alpha *. x) in
    t.drop_ewma.(i) <- e;
    if e > t.worst_drop then begin
      t.worst_drop <- e;
      t.worst_drop_link <- i
    end;
    match t.budgets.drop_rate with
    | Some b when dropped && e > b && not t.link_alarmed.(i) ->
      t.link_alarmed.(i) <- true;
      raise_alarm t ~monitor:"drop_rate" ~time
        ~detail:
          (Printf.sprintf "link %d->%d omission EWMA %.2f exceeds budget %.2f" src dst e b)
        ev
    | _ -> ()
  end

let observe_churn t time ev =
  let dt = float_of_int (max 0 (time - t.churn_last)) in
  t.churn_last <- time;
  t.churn_ewma <- (t.churn_ewma *. exp (-.dt /. churn_tau)) +. (1. /. churn_tau);
  match t.budgets.churn with
  | Some b when t.churn_ewma > b && not t.churn_alarmed ->
    t.churn_alarmed <- true;
    raise_alarm t ~monitor:"churn" ~time
      ~detail:
        (Printf.sprintf "suspicion-churn EWMA %.3f events/tick exceeds budget %.3f"
           t.churn_ewma b)
      ev
  | _ -> ()

let subscriber t (ev : Event.t) =
  ring_push t ev;
  let time = ev.Event.time in
  if time > t.now then t.now <- time;
  (match ev.Event.body with
  | Event.Corrupt { pid } ->
    t.corruptions <- t.corruptions + 1;
    note_fault t time;
    if pid < t.n && t.corrupt_at.(pid) < 0 then begin
      t.corrupt_at.(pid) <- time;
      t.dirty <- t.dirty + 1;
      if time < t.earliest_dirty then t.earliest_dirty <- time
    end
  | Event.Crash { pid } ->
    t.crashes <- t.crashes + 1;
    note_fault t time;
    if pid < t.n then begin
      (* A dead replica never applies again: its divergence episode ends
         with it (death is a process failure, not an unhealed one). *)
      clear_dirty t pid;
      t.out_since.(pid) <- -1
    end
  | Event.Drop { src; dst; _ } ->
    t.dropped <- t.dropped + 1;
    note_fault t time;
    observe_link t ~src ~dst ~dropped:true time ev
  | Event.Deliver { src; dst } ->
    t.delivered <- t.delivered + 1;
    observe_link t ~src ~dst ~dropped:false time ev
  | Event.Suspect_add _ ->
    t.suspect_adds <- t.suspect_adds + 1;
    observe_churn t time ev
  | Event.Suspect_remove _ ->
    t.suspect_removes <- t.suspect_removes + 1;
    observe_churn t time ev
  | Event.Submit { pid; ops } ->
    t.ops_submitted <- t.ops_submitted + ops;
    if pid < t.n && t.out_since.(pid) < 0 then t.out_since.(pid) <- time
  | Event.Commit { pid; slot; ops } ->
    t.ops_committed <- t.ops_committed + ops;
    t.win_ops <- t.win_ops + ops;
    if slot + 1 > t.slots then t.slots <- slot + 1;
    if pid < t.n && t.out_since.(pid) >= 0 then begin
      Metrics.lobserve t.lat (float_of_int (time - t.out_since.(pid)));
      t.out_since.(pid) <- -1;
      t.lat_since_check <- t.lat_since_check + 1;
      if t.lat_since_check >= p99_check_every then begin
        t.lat_since_check <- 0;
        check_p99 t time ev
      end
    end
  | Event.Apply { pid; _ } ->
    if pid < t.n && t.corrupt_at.(pid) >= 0 then begin
      let gap = time - t.corrupt_at.(pid) in
      Metrics.lobserve t.heal_hist (float_of_int gap);
      if gap > t.worst_heal then t.worst_heal <- gap;
      let already_alarmed = t.heal_alarmed.(pid) in
      clear_dirty t pid;
      match t.budgets.heal with
      | Some b when gap > b && not already_alarmed ->
        raise_alarm t ~monitor:"heal" ~time
          ~detail:
            (Printf.sprintf "replica %d healed %d ticks after corruption (budget %d)" pid
               gap b)
          ev
      | _ -> ()
    end
  | Event.Recover _ ->
    t.recoveries <- t.recoveries + 1;
    (* Definition 2.4 measured online: a repair episode is disorder
       evidence; its distance from the last environment fault is the
       running stabilization time d. *)
    if t.last_fault >= 0 then begin
      let d = time - t.last_fault in
      if d > t.measured_d then t.measured_d <- d;
      match t.budgets.stab with
      | Some b when d > b && t.stab_alarm_epoch <> t.last_fault ->
        t.stab_alarm_epoch <- t.last_fault;
        raise_alarm t ~monitor:"stab" ~time
          ~detail:
            (Printf.sprintf
               "measured stabilization d=%d exceeds budget %d (last fault at t=%d)" d b
               t.last_fault)
          ev
      | _ -> ()
    end
  | Event.Send _ | Event.Decide _ | Event.Round_begin | Event.Round_end
  | Event.Window_open | Event.Window_close _ | Event.Case_start _ | Event.Case_verdict _
  | Event.Coverage _ ->
    ());
  check_overdue t time ev;
  if t.every > 0 && time >= t.next_fire then begin
    t.next_fire <- (((time / t.every) + 1) * t.every);
    t.on_interval t ~time
  end

let attach t obs = Obs.add_sink obs (Sink.make ~emit:(subscriber t) ~close:ignore)

(* End-of-run sweep: replicas still unhealed at the horizon and a final
   latency-quantile check (runs with fewer than [p99_check_every]
   commits since the last check would otherwise escape the gate). *)
let finalize t ~end_time =
  if end_time > t.now then t.now <- end_time;
  let sentinel = Event.make ~time:end_time Event.Round_end in
  check_overdue t end_time sentinel;
  if Metrics.lhist_count t.lat > 0 then check_p99 t end_time sentinel

(* --- rendering --- *)

type status = { name : string; armed : bool; value : string; firing : int }

let statuses t =
  let pct p = Metrics.lpercentile t.lat p in
  [
    {
      name = "stab";
      armed = t.budgets.stab <> None;
      value =
        (if t.last_fault < 0 then "no faults"
         else Printf.sprintf "d=%d (last fault t=%d)" t.measured_d t.last_fault);
      firing = fired t "stab";
    };
    {
      name = "heal";
      armed = t.budgets.heal <> None;
      value =
        Printf.sprintf "episodes=%d worst=%d dirty=%d"
          (Metrics.lhist_count t.heal_hist)
          t.worst_heal t.dirty;
      firing = fired t "heal";
    };
    {
      name = "latency_p99";
      armed = t.budgets.p99 <> None;
      value =
        (if Metrics.lhist_count t.lat = 0 then "no samples"
         else Printf.sprintf "p99=%.0f" (pct 99.));
      firing = fired t "latency_p99";
    };
    {
      name = "drop_rate";
      armed = t.budgets.drop_rate <> None;
      value =
        (if t.worst_drop_link < 0 then "no drops"
         else
           Printf.sprintf "worst %.2f (%d->%d)" t.worst_drop
             (t.worst_drop_link / t.n) (t.worst_drop_link mod t.n));
      firing = fired t "drop_rate";
    };
    {
      name = "churn";
      armed = t.budgets.churn <> None;
      value = Printf.sprintf "%.3f/tick" t.churn_ewma;
      firing = fired t "churn";
    };
  ]

let pp_alarm ppf a =
  Format.fprintf ppf "[%s] t=%d %s" a.monitor a.time a.detail

(* One dashboard frame. Mutates the instantaneous-throughput window:
   each call reports committed ops since the previous call. *)
let pp_dashboard ppf t =
  let time = t.now in
  let lat_line ppf () =
    if Metrics.lhist_count t.lat = 0 then Format.fprintf ppf "no samples yet"
    else
      Format.fprintf ppf "p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f max=%.0f (%d samples)"
        (Metrics.lpercentile t.lat 50.)
        (Metrics.lpercentile t.lat 90.)
        (Metrics.lpercentile t.lat 99.)
        (Metrics.lpercentile t.lat 99.9)
        (Metrics.lhist_max t.lat) (Metrics.lhist_count t.lat)
  in
  let cum_rate =
    if time > 0 then float_of_int t.ops_committed /. float_of_int time else 0.
  in
  let win = max 1 (time - t.win_start) in
  let win_rate = float_of_int t.win_ops /. float_of_int win in
  Format.fprintf ppf "@[<v>== ftss watch t=%d ==@," time;
  Format.fprintf ppf
    "ops       submitted=%d committed=%d slots=%d  throughput=%.1f ops/tick (window \
     %.1f)@,"
    t.ops_submitted t.ops_committed t.slots cum_rate win_rate;
  Format.fprintf ppf "latency   %a@," lat_line ();
  Format.fprintf ppf
    "links     delivered=%d dropped=%d  suspicion adds=%d removes=%d churn=%.3f/tick@,"
    t.delivered t.dropped t.suspect_adds t.suspect_removes t.churn_ewma;
  Format.fprintf ppf
    "faults    crashes=%d corruptions=%d last-fault=%s  recoveries=%d measured-d=%d@,"
    t.crashes t.corruptions
    (if t.last_fault < 0 then "none" else Printf.sprintf "t=%d" t.last_fault)
    t.recoveries t.measured_d;
  Format.fprintf ppf "monitors  ";
  List.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf "  ";
      Format.fprintf ppf "%s=%s" s.name
        (if s.firing > 0 then Printf.sprintf "ALARM(%d)" s.firing
         else if s.armed then "ok"
         else "off"))
    (statuses t);
  Format.fprintf ppf "@,";
  Format.fprintf ppf "recorder  ring seen=%d  alarms=%d" (ring_seen t) t.alarm_count;
  (match t.alarms_rev with
  | [] -> ()
  | _ ->
    let first = List.hd (List.rev t.alarms_rev) in
    Format.fprintf ppf "@,first     %a" pp_alarm first);
  Format.fprintf ppf "@]";
  t.win_ops <- 0;
  t.win_start <- time

let dashboard_string t = Format.asprintf "%a@." pp_dashboard t

let statuses_json t =
  Ftss_obs.Json.List
    (List.map
       (fun s ->
         Ftss_obs.Json.Obj
           [
             ("name", Ftss_obs.Json.String s.name);
             ("armed", Ftss_obs.Json.Bool s.armed);
             ("value", Ftss_obs.Json.String s.value);
             ("firing", Ftss_obs.Json.Int s.firing);
           ])
       (statuses t))

(* One machine-readable dashboard frame: the same quantities (and the
   same stateful instantaneous-throughput window) as {!pp_dashboard}. *)
let dashboard_json t =
  let open Ftss_obs.Json in
  let time = t.now in
  let cum_rate =
    if time > 0 then float_of_int t.ops_committed /. float_of_int time else 0.
  in
  let win = max 1 (time - t.win_start) in
  let win_rate = float_of_int t.win_ops /. float_of_int win in
  let latency =
    if Metrics.lhist_count t.lat = 0 then Obj [ ("samples", Int 0) ]
    else
      Obj
        [
          ("samples", Int (Metrics.lhist_count t.lat));
          ("p50", Float (Metrics.lpercentile t.lat 50.));
          ("p90", Float (Metrics.lpercentile t.lat 90.));
          ("p99", Float (Metrics.lpercentile t.lat 99.));
          ("p999", Float (Metrics.lpercentile t.lat 99.9));
          ("max", Float (Metrics.lhist_max t.lat));
        ]
  in
  let json =
    Obj
      [
        ("time", Int time);
        ( "ops",
          Obj
            [
              ("submitted", Int t.ops_submitted);
              ("committed", Int t.ops_committed);
              ("slots", Int t.slots);
              ("throughput_per_tick", Float cum_rate);
              ("window_throughput_per_tick", Float win_rate);
            ] );
        ("latency", latency);
        ( "links",
          Obj
            [
              ("delivered", Int t.delivered);
              ("dropped", Int t.dropped);
              ("suspect_adds", Int t.suspect_adds);
              ("suspect_removes", Int t.suspect_removes);
              ("churn_per_tick", Float t.churn_ewma);
            ] );
        ( "faults",
          Obj
            [
              ("crashes", Int t.crashes);
              ("corruptions", Int t.corruptions);
              ("last_fault", Int t.last_fault);
              ("recoveries", Int t.recoveries);
              ("measured_d", Int t.measured_d);
            ] );
        ("monitors", statuses_json t);
        ( "recorder",
          Obj [ ("ring_seen", Int (ring_seen t)); ("alarms", Int t.alarm_count) ]
        );
        ( "alarms",
          List
            (List.rev_map
               (fun a ->
                 Obj
                   [
                     ("monitor", String a.monitor);
                     ("time", Int a.time);
                     ("detail", String a.detail);
                   ])
               t.alarms_rev) );
      ]
  in
  t.win_ops <- 0;
  t.win_start <- time;
  json

(* --- OpenMetrics text exposition (scrape-based collection) --- *)

let openmetrics t =
  let b = Buffer.create 1024 in
  let counter name help v =
    Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" name);
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "%s_total %d\n" name v)
  in
  let gauge name help v =
    Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name);
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "%s %g\n" name v)
  in
  gauge "ftss_sim_time_ticks" "simulated time of the latest observed event"
    (float_of_int t.now);
  counter "ftss_ops_submitted" "client operations submitted" t.ops_submitted;
  counter "ftss_ops_committed" "operations committed (duplicates included)"
    t.ops_committed;
  counter "ftss_slots_committed" "total-order broadcast slots committed" t.slots;
  counter "ftss_messages_delivered" "messages delivered" t.delivered;
  counter "ftss_messages_dropped" "messages dropped (omission faults)" t.dropped;
  counter "ftss_crashes" "process crashes" t.crashes;
  counter "ftss_corruptions" "transient state corruptions" t.corruptions;
  counter "ftss_recoveries" "repair episodes (Recover events)" t.recoveries;
  counter "ftss_suspicion_churn" "suspicion set changes"
    (t.suspect_adds + t.suspect_removes);
  gauge "ftss_suspicion_churn_rate" "suspicion-churn EWMA, events per tick" t.churn_ewma;
  gauge "ftss_omission_rate_worst_link" "worst per-link omission EWMA" t.worst_drop;
  gauge "ftss_stabilization_d_ticks" "measured online stabilization time d"
    (float_of_int t.measured_d);
  gauge "ftss_heal_worst_ticks" "worst corruption-to-apply heal time"
    (float_of_int t.worst_heal);
  gauge "ftss_replicas_dirty" "replicas corrupted and not yet applying"
    (float_of_int t.dirty);
  if Metrics.lhist_count t.lat > 0 then begin
    Buffer.add_string b "# TYPE ftss_commit_latency_ticks summary\n";
    Buffer.add_string b
      "# HELP ftss_commit_latency_ticks commit latency, submit to commit, in ticks\n";
    List.iter
      (fun (q, p) ->
        Buffer.add_string b
          (Printf.sprintf "ftss_commit_latency_ticks{quantile=\"%s\"} %g\n" q
             (Metrics.lpercentile t.lat p)))
      [ ("0.5", 50.); ("0.9", 90.); ("0.99", 99.); ("0.999", 99.9) ];
    Buffer.add_string b
      (Printf.sprintf "ftss_commit_latency_ticks_sum %g\n" (Metrics.lhist_sum t.lat));
    Buffer.add_string b
      (Printf.sprintf "ftss_commit_latency_ticks_count %d\n" (Metrics.lhist_count t.lat))
  end;
  counter "ftss_alarms" "SLO alarms fired" t.alarm_count;
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "ftss_monitor_alarms_total{monitor=\"%s\"} %d\n" s.name s.firing))
    (statuses t);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let write_openmetrics t path =
  let oc = open_out path in
  output_string oc (openmetrics t);
  close_out oc
