let available () = Domain.recommended_domain_count ()

let domains d = max 1 (min 64 (if d <= 0 then available () else d))

let run ?profile ~lane ~domains:d len work =
  let domains = domains d in
  let chunk = max 1 (min 64 (len / 16)) in
  let next = Atomic.make 0 in
  let worker domain () =
    (* One lane per domain, so recording takes no cross-domain lock
       beyond the lane's creation. *)
    let lane =
      Option.map (fun t -> Profile.lane t (Printf.sprintf "%s.d%d" lane domain)) profile
    in
    let rec claim () =
      let c0 = match lane with Some _ -> Profile.now_ns () | None -> 0 in
      let first = Atomic.fetch_and_add next chunk in
      (match lane with
      | Some l -> ignore (Profile.lap l Profile.Phase.chunk_claim ~since:c0)
      | None -> ());
      if first < len then begin
        (match lane with
        | Some l -> Profile.enter l Profile.Phase.chunk_execute
        | None -> ());
        work ~domain ~first ~limit:(min len (first + chunk));
        (match lane with Some l -> ignore (Profile.leave l) | None -> ());
        claim ()
      end
    in
    claim ()
  in
  (* No domain is spawned that could find no chunk left to claim. *)
  let chunks = (len + chunk - 1) / chunk in
  let spawned =
    Array.init (max 0 (min domains chunks - 1)) (fun d -> Domain.spawn (worker (d + 1)))
  in
  worker 0 ();
  Array.iter Domain.join spawned
