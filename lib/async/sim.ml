open Ftss_util

type time = int

type ('m, 'o) ctx = {
  ctx_now : time;
  ctx_self : Pid.t;
  ctx_n : int;
  mutable outbox : (Pid.t * 'm) list; (* reversed *)
  mutable observations : 'o list; (* reversed *)
}

let send ctx dst msg = ctx.outbox <- (dst, msg) :: ctx.outbox

(* Destinations in pid order, without building the pid list per call. *)
let broadcast ctx msg =
  for dst = 0 to ctx.ctx_n - 1 do
    send ctx dst msg
  done

let observe ctx o = ctx.observations <- o :: ctx.observations
let now ctx = ctx.ctx_now
let self ctx = ctx.ctx_self

type ('s, 'm, 'o) process = {
  name : string;
  init : Pid.t -> 's;
  on_message : ('m, 'o) ctx -> 's -> src:Pid.t -> 'm -> 's;
  on_tick : ('m, 'o) ctx -> 's -> 's;
}

type config = {
  n : int;
  seed : int;
  gst : time;
  delay_before_gst : int * int;
  delay_after_gst : int * int;
  tick_interval : int;
  crashes : (Pid.t * time) list;
  horizon : time;
}

let default_config ~n ~seed =
  {
    n;
    seed;
    gst = 500;
    delay_before_gst = (1, 120);
    delay_after_gst = (1, 8);
    tick_interval = 10;
    crashes = [];
    horizon = 5000;
  }

type ('s, 'o) result = {
  final_states : 's option array;
  log : (time * Pid.t * 'o) list;
  delivered : int;
  dropped_after_crash : int;
  dropped_by_adversary : int;
  end_time : time;
}

(* Events travel through the queue as a packed int tag plus an untyped
   payload slot, so the steady-state engine allocates nothing per event:
   kind in the low 2 bits, source pid in bits 2-13, destination pid in
   bits 14-25 (12 bits per pid field, so systems up to 4096 processes
   pack without widening the tag word). Deliver carries the message in
   the payload slot, Scramble the corruption function, Tick nothing. The
   [Obj] casts are confined to this module and guarded by the kind
   bits. *)
let kind_deliver = 0
let kind_tick = 1
let kind_scramble = 2
let max_n = 4096
let tag_pid tag = (tag lsr 2) land 0xfff
let tag_dst tag = (tag lsr 14) land 0xfff

let correct_set config =
  List.fold_left
    (fun acc (p, t) -> if t <= config.horizon then Pidset.remove p acc else acc)
    (Pidset.full config.n) config.crashes

type verdict = Stabilized of time | Not_within_horizon | Vacuous

let settle config observations =
  let correct = correct_set config in
  let observations = List.filter (fun (_, p, _) -> Pidset.mem p correct) observations in
  let from =
    1 + List.fold_left (fun acc (t, _, v) -> if v then max acc t else acc) (-1) observations
  in
  let judged ~since =
    List.fold_left (fun acc (t, p, _) -> if t >= since then Pidset.add p acc else acc)
      Pidset.empty observations
  in
  if not (Pidset.equal (judged ~since:0) correct) then Vacuous
  else if Pidset.equal (judged ~since:from) correct then Stabilized from
  else Not_within_horizon

let run ?obs ?profile ?(corrupt_at = []) ?drop ?(spurious = []) config process =
  if config.tick_interval < 1 then invalid_arg "Sim.run: tick_interval < 1";
  if config.horizon < 1 then invalid_arg "Sim.run: horizon < 1";
  if config.n < 1 || config.n > max_n then
    invalid_arg (Printf.sprintf "Sim.run: n outside 1..%d" max_n);
  List.iter
    (fun (p, _) ->
      if not (Pid.is_valid ~n:config.n p) then invalid_arg "Sim.run: crash pid out of range")
    config.crashes;
  let rng = Rng.create config.seed in
  let queue = Event_queue.create () in
  let push_deliver ~time ~src ~dst (msg : 'm) =
    Event_queue.push_tagged queue ~time
      ~tag:(kind_deliver lor (src lsl 2) lor (dst lsl 14))
      (Obj.repr msg)
  in
  let push_tick ~time p =
    Event_queue.push_tagged queue ~time ~tag:(kind_tick lor (p lsl 2)) (Obj.repr 0)
  in
  let push_scramble ~time p (f : 's -> 's) =
    Event_queue.push_tagged queue ~time
      ~tag:(kind_scramble lor (p lsl 2))
      (Obj.repr f)
  in
  let crash_time = Array.make config.n max_int in
  List.iter
    (fun (p, t) -> crash_time.(p) <- min crash_time.(p) t)
    config.crashes;
  let alive p ~at = at < crash_time.(p) in
  (* Observability: [traced] guards event construction so the default
     zero-sink path allocates nothing. Crash events are emitted once, the
     first time a process is observed past its crash time. *)
  let traced = Option.is_some obs in
  let emit =
    (* hoisted: one option match at run start, not one per event *)
    match obs with
    | Some o -> fun ev -> Ftss_obs.Obs.emit o ev
    | None -> fun _ -> ()
  in
  let crash_emitted = Array.make config.n false in
  let note_dead p =
    if traced && not crash_emitted.(p) then begin
      crash_emitted.(p) <- true;
      emit
        (Ftss_obs.Event.make ~time:crash_time.(p) (Ftss_obs.Event.Crash { pid = p }))
    end
  in
  let states = Array.init config.n (fun p -> Some (process.init p)) in
  let log = ref [] in
  let delivered = ref 0 in
  let dropped_after_crash = ref 0 in
  let dropped_by_adversary = ref 0 in
  (* The omission adversary, consulted at send time. Self-messages are
     never dropped (the synchronous substrate's footnote-1 rule), and a
     dropped message draws no delay — the schedule of surviving messages
     under a drop matrix is therefore independent of which messages were
     dropped, only of how many survive. *)
  let adversary_drops ~at ~src ~dst =
    match drop with
    | None -> false
    | Some d -> (not (Pid.equal src dst)) && d ~time:at ~src ~dst
  in
  let delay ~at =
    let lo, hi = if at < config.gst then config.delay_before_gst else config.delay_after_gst in
    Rng.int_in rng (max 1 lo) (max 1 hi)
  in
  let flush_ctx ctx =
    List.iter
      (fun (dst, msg) ->
        if adversary_drops ~at:ctx.ctx_now ~src:ctx.ctx_self ~dst then begin
          incr dropped_by_adversary;
          (* The process did send; the adversary suppressed the message in
             flight. Emitting the Send before the Drop keeps the trace
             uniform — every Drop has a matching Send — which the
             provenance DAG relies on to pair drops with their suppressed
             sends. *)
          if traced then begin
            emit
              (Ftss_obs.Event.make ~time:ctx.ctx_now
                 (Ftss_obs.Event.Send { src = ctx.ctx_self; dst = Some dst }));
            emit
              (Ftss_obs.Event.make ~time:ctx.ctx_now
                 (Ftss_obs.Event.Drop { src = ctx.ctx_self; dst; blame = None }))
          end
        end
        else begin
          let t = ctx.ctx_now + delay ~at:ctx.ctx_now in
          if traced then
            emit
              (Ftss_obs.Event.make ~time:ctx.ctx_now
                 (Ftss_obs.Event.Send { src = ctx.ctx_self; dst = Some dst }));
          push_deliver ~time:t ~src:ctx.ctx_self ~dst msg
        end)
      (List.rev ctx.outbox);
    List.iter
      (fun o -> log := (ctx.ctx_now, ctx.ctx_self, o) :: !log)
      (List.rev ctx.observations)
  in
  let step p at f =
    match states.(p) with
    | None -> ()
    | Some s ->
      if alive p ~at then begin
        let ctx =
          { ctx_now = at; ctx_self = p; ctx_n = config.n; outbox = []; observations = [] }
        in
        let s' = f ctx s in
        flush_ctx ctx;
        states.(p) <- Some s'
      end
      else begin
        states.(p) <- None;
        note_dead p
      end
  in
  (* Initial ticks, staggered so processes do not step in lockstep. *)
  List.iter
    (fun p -> push_tick ~time:(1 + (p mod config.tick_interval)) p)
    (Pid.all config.n);
  (* Queued ahead of the planted messages, so a time-0 entry rewrites
     the initial state before any delivery or tick (ticks start at 1). *)
  List.iter
    (fun (t, p, f) ->
      if t < 0 then invalid_arg "Sim.run: corrupt_at time < 0";
      if not (Pid.is_valid ~n:config.n p) then
        invalid_arg "Sim.run: corrupt_at pid out of range";
      push_scramble ~time:t p f)
    corrupt_at;
  List.iter
    (fun (t, src, dst, msg) -> push_deliver ~time:t ~src ~dst msg)
    spurious;
  let end_time = ref 0 in
  (* Profiling: like [obs], the bare path pays only an option test per
     event. Armed, the loop chains clock reads — the pop lap ends where
     the handler frame begins, and the frame's end tick seeds the next
     pop lap — so a fully attributed event costs ~2 monotonic-clock
     reads plus the handler-internal spans the process itself records. *)
  let module Prof = Ftss_profile.Profile in
  let tprev = ref (match profile with Some _ -> Prof.now_ns () | None -> 0) in
  let pop_lap () =
    match profile with
    | Some l -> tprev := Prof.lap l Prof.Phase.sim_pop ~since:!tprev
    | None -> ()
  in
  let frame_enter phase =
    match profile with
    | Some l -> Prof.enter_at l phase ~at:!tprev
    | None -> ()
  in
  let frame_leave () =
    match profile with
    | Some l ->
      let e = Prof.leave l in
      if e > 0 then tprev := e
    | None -> ()
  in
  let rec loop () =
    if Event_queue.pop_step queue then begin
      let t = Event_queue.out_time queue in
      if t > config.horizon then end_time := config.horizon
      else begin
        end_time := t;
        let tag = Event_queue.out_tag queue in
        pop_lap ();
        (match tag land 3 with
        | k when k = kind_deliver ->
          let src = tag_pid tag and dst = tag_dst tag in
          if alive dst ~at:t && states.(dst) <> None then begin
            incr delivered;
            if traced then
              emit (Ftss_obs.Event.make ~time:t (Ftss_obs.Event.Deliver { src; dst }));
            let msg : 'm = Obj.obj (Event_queue.out_payload queue) in
            frame_enter Prof.Phase.sim_deliver;
            step dst t (fun ctx s -> process.on_message ctx s ~src msg);
            frame_leave ()
          end
          else begin
            incr dropped_after_crash;
            note_dead dst;
            if traced then
              emit
                (Ftss_obs.Event.make ~time:t
                   (Ftss_obs.Event.Drop { src; dst; blame = Some dst }))
          end
        | k when k = kind_tick ->
          let p = tag_pid tag in
          if alive p ~at:t && states.(p) <> None then begin
            frame_enter Prof.Phase.sim_dispatch;
            step p t process.on_tick;
            push_tick ~time:(t + config.tick_interval) p;
            frame_leave ()
          end
        | _ -> (
          (* A transient fault: the adversary rewrites p's state in place.
             The victim takes no step — it only discovers the damage (if
             its protocol can) at its next tick or delivery. *)
          let p = tag_pid tag in
          match states.(p) with
          | Some s when alive p ~at:t ->
            let f : 's -> 's = Obj.obj (Event_queue.out_payload queue) in
            frame_enter Prof.Phase.sim_dispatch;
            states.(p) <- Some (f s);
            frame_leave ();
            if traced then
              emit (Ftss_obs.Event.make ~time:t (Ftss_obs.Event.Corrupt { pid = p }))
          | _ -> ()));
        loop ()
      end
    end
  in
  loop ();
  (* Mark crashed processes in the final state vector. *)
  Array.iteri
    (fun p st ->
      if st <> None && not (alive p ~at:config.horizon) then begin
        states.(p) <- None;
        note_dead p
      end)
    (Array.copy states);
  {
    final_states = states;
    log = List.rev !log;
    delivered = !delivered;
    dropped_after_crash = !dropped_after_crash;
    dropped_by_adversary = !dropped_by_adversary;
    end_time = !end_time;
  }
