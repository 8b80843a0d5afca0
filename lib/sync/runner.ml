open Ftss_util

type ('s, 'm) cursor = {
  protocol : ('s, 'm) Protocol.t;
  n : int;
  round : int;  (* rounds executed so far *)
  states : 's option array;  (* entering the next round; never written once stored *)
  crashed_at : int option array;  (* copied before a crash is recorded *)
  rev_omissions : (int * Pid.t * Pid.t) list;
  rev_records : ('s, 'm) Trace.round_record list;
  generators : int;  (* the content hash's fold of the generator vectors so far *)
}

let emit obs ev = match obs with Some o -> Ftss_obs.Obs.emit o ev | None -> ()

(* Rewrites [states] by the schedule's entries for [round], in list
   order, skipping a pid that is already crashed. Returns whether the
   schedule names [round] at all. *)
let apply_corruptions obs ~round corrupt_at states =
  List.fold_left
    (fun named (r, p, f) ->
      if r < 0 || not (Pid.is_valid ~n:(Array.length states) p) then
        invalid_arg "Runner: corrupt_at round < 0 or pid out of range";
      if r <> round then named
      else begin
        (match states.(p) with
        | Some s ->
          states.(p) <- Some (f s);
          if Option.is_some obs then
            emit obs (Ftss_obs.Event.make ~time:round (Ftss_obs.Event.Corrupt { pid = p }))
        | None -> ());
        true
      end)
    false corrupt_at

let start ?obs ?(corrupt_at = []) ~n (protocol : ('s, 'm) Protocol.t) =
  let states = Array.init n (fun p -> Some (protocol.init p)) in
  ignore (apply_corruptions obs ~round:0 corrupt_at states : bool);
  {
    protocol;
    n;
    round = 0;
    states;
    crashed_at = Array.make n None;
    rev_omissions = [];
    rev_records = [];
    generators = Trace.hash_seed;
  }

let step ?obs ?(corrupt_at = []) ~faults c =
  let n = c.n and protocol = c.protocol in
  let round = c.round + 1 in
  (* Observability: [traced] guards event *construction*, so the default
     zero-sink path allocates nothing here. *)
  let traced = Option.is_some obs in
  if traced then emit obs (Ftss_obs.Event.make ~time:round Ftss_obs.Event.Round_begin);
  (* The cursor [c] stays valid, so this round works on fresh arrays: the
     states entering it become the record's [states_before]. *)
  let states = Array.copy c.states in
  let crashed_at = ref c.crashed_at in
  (* Crashes scheduled for this round take effect before the broadcast. *)
  for p = 0 to n - 1 do
    match (states.(p), Faults.crash_round faults p) with
    | Some _, Some cr when cr <= round ->
      states.(p) <- None;
      if !crashed_at == c.crashed_at then crashed_at := Array.copy c.crashed_at;
      (!crashed_at).(p) <- Some cr;
      if traced then
        emit obs (Ftss_obs.Event.make ~time:round (Ftss_obs.Event.Crash { pid = p }))
    | _ -> ()
  done;
  (* Mid-execution systemic failure, if scheduled. *)
  let rewritten = apply_corruptions obs ~round corrupt_at states in
  let sent = Array.make n None in
  for p = 0 to n - 1 do
    match states.(p) with
    | None -> ()
    | Some s ->
      if traced then
        emit obs
          (Ftss_obs.Event.make ~time:round (Ftss_obs.Event.Send { src = p; dst = None }));
      sent.(p) <- Some (protocol.broadcast p s)
  done;
  let omissions = ref c.rev_omissions in
  let delivered = Array.make n [] in
  if Faults.quiet_round faults ~round then begin
    (* No omission can occur this round, so every live receiver gets the
       same deliveries: build the list once and share it — the dominant
       allocation of a failure-free round drops from n^2 to n. *)
    let full = ref [] in
    for src = n - 1 downto 0 do
      match sent.(src) with
      | Some payload -> full := { Protocol.src; payload } :: !full
      | None -> ()
    done;
    let full = !full in
    for dst = 0 to n - 1 do
      if not (Option.is_none states.(dst)) then begin
        if traced then
          List.iter
            (fun { Protocol.src; _ } ->
              emit obs (Ftss_obs.Event.make ~time:round (Ftss_obs.Event.Deliver { src; dst })))
            full;
        delivered.(dst) <- full
      end
    done
  end
  else begin
    (* Scratch buffer reused across every destination: the senders
       delivered to the current destination, ascending. *)
    let senders = Array.make n 0 in
    for dst = 0 to n - 1 do
      if not (Option.is_none states.(dst)) then begin
        (* First pass: decide every link in ascending sender order — the
           order events, omissions and the delivery list are recorded in —
           stashing surviving senders in the scratch buffer. *)
        let count = ref 0 in
        for src = 0 to n - 1 do
          if not (Option.is_none sent.(src)) then
            if not (Faults.drops faults ~round ~src ~dst) then begin
              if traced then
                emit obs
                  (Ftss_obs.Event.make ~time:round (Ftss_obs.Event.Deliver { src; dst }));
              senders.(!count) <- src;
              incr count
            end
            else begin
              omissions := (round, src, dst) :: !omissions;
              if traced then
                emit obs
                  (Ftss_obs.Event.make ~time:round
                     (Ftss_obs.Event.Drop { src; dst; blame = Faults.blame faults ~src ~dst }))
            end
        done;
        (* Second pass, descending, conses the delivery list directly in
           ascending sender order — no [List.rev], no intermediate list. *)
        let ds = ref [] in
        for i = !count - 1 downto 0 do
          let src = senders.(i) in
          match sent.(src) with
          | Some payload -> ds := { Protocol.src; payload } :: !ds
          | None -> assert false
        done;
        delivered.(dst) <- !ds
      end
    done
  end;
  let states_after =
    Array.mapi
      (fun p st ->
        match st with None -> None | Some s -> Some (protocol.step p s delivered.(p)))
      states
  in
  if traced then emit obs (Ftss_obs.Event.make ~time:round Ftss_obs.Event.Round_end);
  (* A round without omissions handed every live receiver the one shared
     list, so [Trace.knowledge] folds its senders once. *)
  let know =
    let before =
      match c.rev_records with
      | last :: _ -> last.Trace.know
      | [] -> Array.init n Pidset.singleton
    in
    Trace.knowledge ~before delivered
  in
  {
    c with
    round;
    states = states_after;
    crashed_at = !crashed_at;
    rev_omissions = !omissions;
    rev_records =
      { Trace.round; states_before = states; sent; delivered; states_after; know }
      :: c.rev_records;
    generators =
      (* The execution is a pure function of the state vector entering
         round 1 plus any vector a mid-run corruption rewrote (see
         trace.mli): those are the content hash's generators, folded here
         once for every case that shares this cursor. *)
      (if round = 1 || rewritten then Trace.fold_generator c.generators states
       else c.generators);
  }

let finish ~faults c =
  if c.round = 0 then invalid_arg "Runner.finish: no round executed";
  let records = Array.of_list (List.rev c.rev_records) in
  let omissions = List.rev c.rev_omissions in
  (* The trace gets its own crash table: the cursor's may be shared with
     sibling cursors. *)
  let crashed_at = Array.copy c.crashed_at in
  let declared_faulty = Faults.faulty faults in
  let name = c.protocol.name in
  let hash =
    Trace.seal_hash c.generators ~n:c.n ~protocol_name:name ~rounds:c.round ~crashed_at
      ~omissions ~declared_faulty
  in
  {
    Trace.n = c.n;
    protocol_name = name;
    records;
    crashed_at;
    omissions;
    declared_faulty;
    hash;
    windowed = false;
  }

let run ?obs ?corrupt_at ~faults ~rounds protocol =
  if rounds < 1 then invalid_arg "Runner.run: rounds < 1";
  let c = ref (start ?obs ?corrupt_at ~n:(Faults.n faults) protocol) in
  for _ = 1 to rounds do
    c := step ?obs ?corrupt_at ~faults !c
  done;
  finish ~faults !c
