open Ftss_util

type value = int

type style = { retransmit : bool; round_agreement : bool }

let baseline = { retransmit = false; round_agreement = false }
let self_stabilizing = { retransmit = true; round_agreement = true }
let retransmit_only = { retransmit = true; round_agreement = false }
let round_agreement_only = { retransmit = false; round_agreement = true }

type tag = { instance : int; round : int }

let tag_gt a b =
  a.instance > b.instance || (a.instance = b.instance && a.round > b.round)

(* The rounds of one instance are {!Mv_consensus}'s; the driver adds the
   instance number to its messages, and owns decision dissemination and
   the round-agreement heartbeat. *)
type msg =
  | Detector of Esfd.Layer.msg
  | Cons of { instance : int; m : value Mv_consensus.msg }
  | Decide of { instance : int; value : value }
  | Round of { tag : tag }

type state = {
  detector : Esfd.Layer.t;
  instance : int;
  engine : value Mv_consensus.t; (* the current instance's rounds *)
  prev_decision : (int * value) option;
  pending : (Pid.t * tag * msg) list;
      (* future-tagged messages buffered for replay (classic CT91); only
         populated when the style does not run round agreement *)
}

type observation =
  | Decided of { instance : int; value : value }
  | Joined of tag

let forged_round tag = Round { tag }
let forged_decide ~instance ~value = Decide { instance; value }

(* Base 0 keeps the coordinator of round r at p(r mod n) in every
   instance, and weight 0 leaves the proposal rule at the lowest pid
   among the newest timestamps. *)
let no_weight (_ : value) = 0

let fresh_engine ~n ~self ~proposal =
  Mv_consensus.create ~n ~self ~base:0 ~weight:no_weight ~proposal

let current_tag st = { instance = st.instance; round = Mv_consensus.round st.engine }

let newer st ~instance ~round =
  instance > st.instance || (instance = st.instance && round > Mv_consensus.round st.engine)

(* The round a consensus message belongs to: the driver reads it to
   buffer or join, the engine alone acts on the message. *)
let round_of_cons = function
  | Mv_consensus.Est { round; _ } | Propose { round; _ } | Ack { round } | Nack { round } ->
    round

let pending_cap = 256

let rec send_outs ctx ~instance = function
  | [] -> ()
  | Mv_consensus.To (dst, m) :: rest ->
    Sim.send ctx dst (Cons { instance; m });
    send_outs ctx ~instance rest
  | Mv_consensus.All m :: rest ->
    Sim.broadcast ctx (Cons { instance; m });
    send_outs ctx ~instance rest

(* The coordinator that assembled a majority of acks broadcasts the
   decision (receivers are idempotent, so repeats are harmless). *)
let broadcast_verdict ctx ~instance = function
  | Mv_consensus.Decided value -> Sim.broadcast ctx (Decide { instance; value })
  | Mv_consensus.Continue -> ()

let emit_decide obs ctx ~instance ~value =
  match obs with
  | None -> ()
  | Some o ->
    Ftss_obs.Obs.emit o
      (Ftss_obs.Event.make ~time:(Sim.now ctx)
         (Ftss_obs.Event.Decide { pid = Sim.self ctx; instance; value }))

(* Round agreement: abandon current work and join a newer (instance,
   round). A newer instance starts a fresh engine; its round-0 estimate
   goes out only when round 0 is the target. *)
let join ctx ~n ~propose st target =
  Sim.observe ctx (Joined target);
  let engine, outs =
    if target.instance > st.instance then begin
      let self = Sim.self ctx in
      let engine, outs =
        fresh_engine ~n ~self ~proposal:(propose self target.instance)
      in
      if target.round > 0 then Mv_consensus.jump engine ~round:target.round
      else (engine, outs)
    end
    else Mv_consensus.jump st.engine ~round:target.round
  in
  send_outs ctx ~instance:target.instance outs;
  { st with instance = target.instance; engine }

(* Learn the decision of [instance] (>= ours) and start the next one. *)
let learn_decision ?obs ctx ~n ~propose st ~instance ~value =
  Sim.observe ctx (Decided { instance; value });
  emit_decide obs ctx ~instance ~value;
  let next = instance + 1 in
  let self = Sim.self ctx in
  let engine, outs = fresh_engine ~n ~self ~proposal:(propose self next) in
  send_outs ctx ~instance:next outs;
  { st with instance = next; engine; prev_decision = Some (instance, value) }

let process ?obs ~n ~style ~propose ~detector () =
  (* A consensus message tagged (instance, round): a newer tag is joined
     (round agreement) or buffered (classic CT); the current instance's
     traffic goes to the engine, which therefore never sees a future round
     unless round agreement put it there. *)
  let rec on_tagged ctx st ~src ~instance ~round m =
    if not (newer st ~instance ~round) then to_engine ctx st ~src m
    else if style.round_agreement then
      to_engine ctx (join ctx ~n ~propose st { instance; round }) ~src m
    else
      {
        st with
        pending =
          (src, { instance; round }, m)
          :: List.filteri (fun i _ -> i < pending_cap - 1) st.pending;
      }
  and to_engine ctx st ~src = function
    | Cons { instance; m } when instance = st.instance ->
      let engine, outs, verdict = Mv_consensus.receive st.engine ~src m in
      send_outs ctx ~instance outs;
      broadcast_verdict ctx ~instance verdict;
      drain ctx { st with engine }
    | Cons _ | Round _ | Detector _ | Decide _ -> st
  and on_decide ctx st ~instance ~value =
    if instance >= st.instance then
      drain ctx (learn_decision ?obs ctx ~n ~propose st ~instance ~value)
    else st
  (* Replay buffered messages that have become current; drop stale ones.
     Progress is guaranteed: each iteration removes one message. *)
  and drain ctx st =
    if style.round_agreement || st.pending = [] then st
    else begin
      let cur = current_tag st in
      let live = List.filter (fun (_, t, _) -> not (tag_gt cur t)) st.pending in
      let matching, future = List.partition (fun (_, t, _) -> t = cur) live in
      match matching with
      | [] -> { st with pending = future }
      | (src, { instance; round }, m) :: rest ->
        let st = { st with pending = rest @ future } in
        drain ctx (on_tagged ctx st ~src ~instance ~round m)
    end
  in
  let on_tick ctx st =
    (* Failure-detector maintenance: the ◇W source and Figure 4. *)
    let detector = Esfd.Layer.tick ?obs ctx ~wrap:(fun m -> Detector m) st.detector in
    (* The instance's timer actions: nack a suspected coordinator and,
       when retransmitting, re-send the unfinished phase. *)
    let engine, outs, verdict =
      Mv_consensus.tick st.engine ~suspected:(Esfd.Layer.suspected detector)
        ~retransmit:style.retransmit
    in
    send_outs ctx ~instance:st.instance outs;
    broadcast_verdict ctx ~instance:st.instance verdict;
    (if style.retransmit then
       match st.prev_decision with
       | Some (instance, value) -> Sim.broadcast ctx (Decide { instance; value })
       | None -> ());
    let st = drain ctx { st with detector; engine } in
    (* The round agreement heartbeat (the Figure 1 broadcast). *)
    if style.round_agreement then Sim.broadcast ctx (Round { tag = current_tag st });
    st
  in
  {
    Sim.name =
      (match (style.retransmit, style.round_agreement) with
      | false, false -> "ct-consensus"
      | true, true -> "ss-ct-consensus"
      | true, false -> "ct-consensus+retransmit"
      | false, true -> "ct-consensus+round-agreement");
    init =
      (fun p ->
        {
          detector = Esfd.Layer.create ~n detector;
          instance = 0;
          (* The initial state has sent nothing yet: the round-0 estimate
             goes out on the first round change or retransmission. *)
          engine = fst (fresh_engine ~n ~self:p ~proposal:(propose p 0));
          prev_decision = None;
          pending = [];
        });
    on_message =
      (fun ctx st ~src m ->
        match m with
        | Detector m ->
          { st with detector = Esfd.Layer.receive ?obs ctx ~src m st.detector }
        | Cons { instance; m = cm } ->
          on_tagged ctx st ~src ~instance ~round:(round_of_cons cm) m
        | Round { tag = { instance; round } } -> on_tagged ctx st ~src ~instance ~round m
        | Decide { instance; value } -> on_decide ctx st ~instance ~value);
    on_tick;
  }

let corrupt_random rng ~instance_bound ~round_bound ~value_bound _pid st =
  (* The draw order is fixed: seeded corruptions (the tests, E6, E8b)
     reproduce only under it. *)
  let prev_decision =
    if Rng.chance rng 0.3 then begin
      let value = Rng.int rng value_bound in
      Some (Rng.int rng instance_bound, value)
    end
    else None
  in
  let ts = if Rng.chance rng 0.3 then Rng.int rng 1_000_000 else -1 in
  let estimate = Rng.int rng value_bound in
  let round = Rng.int rng round_bound in
  let instance = Rng.int rng instance_bound in
  {
    detector = Esfd.Layer.corrupt rng ~num_bound:1000 st.detector;
    instance;
    engine = Mv_consensus.plant st.engine ~round ~estimate ~ts;
    prev_decision;
    pending = [];
  }

let corrupt_parked ~round _pid st =
  let engine =
    Mv_consensus.plant st.engine ~round ~estimate:(Mv_consensus.estimate st.engine) ~ts:(-1)
  in
  { st with instance = 0; engine; pending = [] }

type decision = { d_time : int; d_pid : Pid.t; d_instance : int; d_value : value }

let decisions (result : (state, observation) Sim.result) =
  List.filter_map
    (fun (time, pid, obs) ->
      match obs with
      | Decided { instance; value } ->
        Some { d_time = time; d_pid = pid; d_instance = instance; d_value = value }
      | Joined _ -> None)
    result.Sim.log

let per_instance ds ~correct =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun d ->
      if Pidset.mem d.d_pid correct then
        Hashtbl.replace tbl d.d_instance
          (d :: Option.value ~default:[] (Hashtbl.find_opt tbl d.d_instance)))
    ds;
  Hashtbl.fold (fun i ds acc -> (i, List.rev ds) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let disagreements grouped =
  List.filter_map
    (fun (i, ds) ->
      match ds with
      | [] -> None
      | first :: rest ->
        if List.for_all (fun d -> d.d_value = first.d_value) rest then None else Some i)
    grouped

let invalid_instances grouped ~propose ~n =
  List.filter_map
    (fun (i, ds) ->
      let legal v = List.exists (fun p -> propose p i = v) (Pid.all n) in
      if List.for_all (fun d -> legal d.d_value) ds then None else Some i)
    grouped

let stabilization_time result ~correct ~propose ~n =
  let ds = decisions result in
  let grouped = per_instance ds ~correct in
  let bad_instances = disagreements grouped @ invalid_instances grouped ~propose ~n in
  let last_bad =
    List.fold_left
      (fun acc d -> if List.mem d.d_instance bad_instances then max acc d.d_time else acc)
      (-1) ds
  in
  let t = last_bad + 1 in
  (* A violation still occurring in the final tenth of the run is evidence
     the system had not stabilized within the horizon. *)
  if t > result.Sim.end_time * 9 / 10 then None else Some t

let fully_decided_after ds ~correct ~from =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun d ->
      if Pidset.mem d.d_pid correct && d.d_time >= from then
        Hashtbl.replace tbl d.d_instance
          (Pidset.add d.d_pid
             (Option.value ~default:Pidset.empty (Hashtbl.find_opt tbl d.d_instance))))
    ds;
  Hashtbl.fold
    (fun _ pids acc -> if Pidset.equal pids correct then acc + 1 else acc)
    tbl 0
