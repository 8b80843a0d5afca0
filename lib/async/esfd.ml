open Ftss_util

type status = Dead | Alive

type t = { nums : int array; statuses : status array }

type entry = { subject : Pid.t; num : int; status : status }
type msg = entry list

let create ~n = { nums = Array.make n 0; statuses = Array.make n Alive }

let corrupt rng ~num_bound t =
  let statuses = Array.map (fun _ -> if Rng.bool rng then Dead else Alive) t.statuses in
  let nums = Array.map (fun _ -> Rng.int rng num_bound) t.nums in
  { nums; statuses }

let tick t ~self ~detect =
  let n = Array.length t.nums in
  (* One copy of each table per tick — not one per bumped subject, which
     made a tick O(n) allocations on the simulator's hottest path. *)
  let nums = Array.copy t.nums and statuses = Array.copy t.statuses in
  for s = 0 to n - 1 do
    if Pid.equal s self then begin
      nums.(s) <- nums.(s) + 1;
      statuses.(s) <- Alive
    end
    else if detect s then begin
      nums.(s) <- nums.(s) + 1;
      statuses.(s) <- Dead
    end
  done;
  let message =
    List.map (fun s -> { subject = s; num = nums.(s); status = statuses.(s) }) (Pid.all n)
  in
  ({ nums; statuses }, message)

let receive t message =
  let nums = Array.copy t.nums and statuses = Array.copy t.statuses in
  List.iter
    (fun e ->
      if e.num > nums.(e.subject) then begin
        nums.(e.subject) <- e.num;
        statuses.(e.subject) <- e.status
      end)
    message;
  { nums; statuses }

let suspected t s = t.statuses.(s) = Dead

let suspects t =
  Pidset.of_pred (Array.length t.statuses) (fun s -> suspected t s)

type source = Oracle of Ewfd.t | Heartbeats

(* Every heartbeat run uses one timeout setting, and its corruption one
   pair of bounds. *)
let initial_timeout = 30
let backoff = 20
let time_bound = 10_000
let timeout_bound = 150

let emit_suspect_diff obs ctx ~before ~after =
  match obs with
  | None -> ()
  | Some o ->
    Ftss_obs.Obs.suspect_diff o ~time:(Sim.now ctx) ~observer:(Sim.self ctx)
      ~before:(suspects before) ~after:(suspects after)

module Layer = struct
  type detector = Scripted of Ewfd.t | Beating of Heartbeat.t

  (* [fd] is the transform. Each function below wraps the transform's
     function of the same name, defined above. *)
  type nonrec t = { fd : t; detector : detector }
  type nonrec msg = Hb of Heartbeat.msg | Fd of msg

  let create ~n source =
    let detector =
      match source with
      | Oracle oracle -> Scripted oracle
      | Heartbeats -> Beating (Heartbeat.create ~n ~initial_timeout ~backoff)
    in
    { fd = create ~n; detector }

  let tick ?obs ctx ~wrap l =
    let now = Sim.now ctx and self = Sim.self ctx in
    let detector, detect =
      match l.detector with
      | Scripted oracle ->
        (l.detector, fun s -> Ewfd.detect oracle ~at:now ~observer:self ~subject:s)
      | Beating hb ->
        Sim.broadcast ctx (wrap (Hb Heartbeat.Heartbeat));
        let hb = Heartbeat.tick hb ~self ~now in
        (Beating hb, Heartbeat.suspected hb)
    in
    let fd, m = tick l.fd ~self ~detect in
    emit_suspect_diff obs ctx ~before:l.fd ~after:fd;
    Sim.broadcast ctx (wrap (Fd m));
    { fd; detector }

  let receive ?obs ctx ~src m l =
    match (m, l.detector) with
    | Fd m, _ ->
      let fd = receive l.fd m in
      emit_suspect_diff obs ctx ~before:l.fd ~after:fd;
      { l with fd }
    | Hb Heartbeat.Heartbeat, Beating hb ->
      { l with detector = Beating (Heartbeat.heard hb ~src ~now:(Sim.now ctx)) }
    | Hb Heartbeat.Heartbeat, Scripted _ -> l

  let suspected l s = suspected l.fd s

  let corrupt rng ~num_bound l =
    (* The transform draws first: the order seeded runs reproduce under. *)
    let fd = corrupt rng ~num_bound l.fd in
    match l.detector with
    | Scripted _ -> { l with fd }
    | Beating hb ->
      { fd; detector = Beating (Heartbeat.corrupt rng ~time_bound ~timeout_bound hb) }
end

type observation = Suspects of Pidset.t

let process ?obs ~n ~source () =
  {
    Sim.name = "esfd";
    init = (fun _ -> Layer.create ~n source);
    on_tick =
      (fun ctx l ->
        let l = Layer.tick ?obs ctx ~wrap:Fun.id l in
        Sim.observe ctx (Suspects (suspects l.Layer.fd));
        l);
    on_message =
      (fun ctx l ~src m ->
        let l' = Layer.receive ?obs ctx ~src m l in
        (match m with
        | Layer.Fd _ ->
          let after = suspects l'.Layer.fd in
          if not (Pidset.equal (suspects l.Layer.fd) after) then
            Sim.observe ctx (Suspects after)
        | Layer.Hb _ -> ());
        l');
  }

type report = {
  convergence : Sim.verdict;
  completeness : Sim.verdict;
  accuracy : Sim.verdict;
}

let analyze ?trusted (result : (_, observation) Sim.result) ~config =
  let correct = Sim.correct_set config in
  let crashed = Pidset.diff (Pidset.full config.Sim.n) correct in
  let judge violates =
    Sim.settle config
      (List.map (fun (time, pid, Suspects set) -> (time, pid, violates set)) result.Sim.log)
  in
  let incomplete set = not (Pidset.subset crashed set) in
  (* Accuracy clears the trusted process or, in the literal form, the
     earliest-cleared correct candidate. Every candidate is judged on the
     same observations, so either all of them are vacuous or none is. *)
  let earliest violates =
    let verdicts =
      List.map (fun c -> judge (fun set -> violates set c))
        (match trusted with Some p -> [ p ] | None -> Pidset.to_list correct)
    in
    match List.filter_map (function Sim.Stabilized t -> Some t | _ -> None) verdicts with
    | t :: ts -> Sim.Stabilized (List.fold_left min t ts)
    | [] -> ( match verdicts with v :: _ -> v | [] -> Sim.Not_within_horizon)
  in
  {
    convergence = earliest (fun set c -> incomplete set || Pidset.mem c set);
    completeness = judge incomplete;
    accuracy = earliest (fun set c -> Pidset.mem c set);
  }
