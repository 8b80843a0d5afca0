open Ftss_util

(* One instance of multivalued ◇S consensus — the §3 rotating-coordinator
   protocol as a pure per-instance engine over arbitrary payloads. The
   enclosing layer (the repeated driver [Consensus], or total-order
   broadcast) owns instance numbering, message transport, decision
   dissemination, and the failure detector; this module owns one
   instance's rounds. *)

type 'v msg =
  | Est of { round : int; estimate : 'v; ts : int }
  | Propose of { round : int; value : 'v }
  | Ack of { round : int }
  | Nack of { round : int }

type 'v out = To of Pid.t * 'v msg | All of 'v msg

type 'v verdict = Decided of 'v | Continue

type 'v coord = {
  co_round : int;
  co_ests : ('v * int) Pidmap.t;
  co_proposal : 'v option;
  co_acks : Pidset.t;
}

type 'v t = {
  n : int;
  self : Pid.t;
  base : int; (* coordinator rotation offset (the instance number) *)
  weight : 'v -> int; (* tie-break preference among equally fresh estimates *)
  round : int;
  estimate : 'v;
  ts : int; (* round in which [estimate] was adopted; -1 = fresh *)
  coord : 'v coord option;
}

let round t = t.round
let estimate t = t.estimate

(* Rotating the round-0 coordinator by the instance number spreads the
   proposer role across replicas over a repeated run. *)
let coord_of t r = (((t.base + r) mod t.n) + t.n) mod t.n
let majority n = (n / 2) + 1
let fresh_coord round =
  { co_round = round; co_ests = Pidmap.empty; co_proposal = None; co_acks = Pidset.empty }

let round_of_msg = function
  | Est { round; _ } | Propose { round; _ } | Ack { round } | Nack { round } -> round

(* Entering a round: phase-1 estimate to the coordinator; a fresh
   coordination record when we are that coordinator. *)
let enter t ~round:r =
  let c = coord_of t r in
  let t = { t with round = r } in
  let t = if Pid.equal c t.self then { t with coord = Some (fresh_coord r) } else t in
  (t, [ To (c, Est { round = r; estimate = t.estimate; ts = t.ts }) ])

let create ~n ~self ~base ~weight ~proposal =
  if n < 1 then invalid_arg "Mv_consensus.create: n < 1";
  let t =
    { n; self; base; weight; round = 0; estimate = proposal; ts = -1; coord = None }
  in
  enter t ~round:0

(* Phase 2: with a majority of estimates and no proposal yet, propose the
   estimate with the newest timestamp. A timestamped (locked) estimate
   always beats a fresh one — the agreement argument; among equally fresh
   ones, prefer the heaviest by [weight], then the lowest pid. *)
let maybe_propose t co =
  match co.co_proposal with
  | Some _ -> (co, [])
  | None ->
    if Pidmap.cardinal co.co_ests < majority t.n then (co, [])
    else begin
      let better (ts', v') (ts, v) =
        ts' > ts || (ts' = ts && t.weight v' > t.weight v)
      in
      let _, (best, _) =
        Pidmap.fold
          (fun pid (v, ts) (bp, (bv, bts)) ->
            if better (ts, v) (bts, bv) then (pid, (v, ts)) else (bp, (bv, bts)))
          co.co_ests
          (Pidmap.min_binding co.co_ests)
      in
      ({ co with co_proposal = Some best }, [ All (Propose { round = co.co_round; value = best }) ])
    end

(* Phase 4: a majority of acks decides. Repeats are harmless — the
   enclosing layer's decision broadcast is idempotent. *)
let check_decide t co =
  match co.co_proposal with
  | Some v when Pidset.cardinal co.co_acks >= majority t.n -> Decided v
  | Some _ | None -> Continue

let receive t ~src m =
  (* Round agreement within the instance: any message from a newer round
     moves us there first (abandoning current work), then is processed.
     Coordinator-directed traffic (Est/Ack) is matched against the
     coordination record by {e its} round, not the process round — the
     coordinator moves to round r+1 the moment it processes its own
     proposal, while the round-r acks it must count are still in
     flight. *)
  let mr = round_of_msg m in
  let t, outs = if mr > t.round then enter t ~round:mr else (t, []) in
  match m with
  | Nack _ -> (t, outs, Continue)
  | Est { round = r; estimate; ts } ->
    if not (Pid.equal (coord_of t r) t.self) then (t, outs, Continue)
    else begin
      (* A coordinator whose record was lost to a systemic failure (or
         that is being addressed by retransmissions) reconstructs it —
         without clobbering a record for a newer round. *)
      let t =
        match t.coord with
        | None -> { t with coord = Some (fresh_coord r) }
        | Some co when co.co_round < r -> { t with coord = Some (fresh_coord r) }
        | Some _ -> t
      in
      match t.coord with
      | Some co when co.co_round = r ->
        let co = { co with co_ests = Pidmap.add src (estimate, ts) co.co_ests } in
        let co, outs' = maybe_propose t co in
        ({ t with coord = Some co }, outs @ outs', Continue)
      | Some _ | None -> (t, outs, Continue)
    end
  | Propose { round = r; value } ->
    if r < t.round then (t, outs, Continue)
    else begin
      (* Phase 3 (ack): adopt the proposal, reply, move on. *)
      let ack = To (coord_of t r, Ack { round = r }) in
      let t = { t with estimate = value; ts = r } in
      let t, outs' = enter t ~round:(r + 1) in
      (t, outs @ [ ack ] @ outs', Continue)
    end
  | Ack { round = r } ->
    (match t.coord with
    | Some co when co.co_round = r ->
      let co = { co with co_acks = Pidset.add src co.co_acks } in
      ({ t with coord = Some co }, outs, check_decide t co)
    | Some _ | None -> (t, outs, Continue))

(* The round-agreement jump driven by the enclosing layer's gossip (the
   Figure 1 superimposition, carried on the Tob [Tag] heartbeat). *)
let jump t ~round:r = if r > t.round then enter t ~round:r else (t, [])

let tick t ~suspected ~retransmit =
  (* Phase 3 (nack): give up on a suspected coordinator. *)
  let c = coord_of t t.round in
  let t, outs =
    if (not (Pid.equal c t.self)) && suspected c then
      let nack = To (c, Nack { round = t.round }) in
      let t, outs = enter t ~round:(t.round + 1) in
      (t, nack :: outs)
    else (t, [])
  in
  if not retransmit then (t, outs, Continue)
  else begin
    (* The per-tick superimposition: re-send every message of the
       unfinished phase and reconstruct lost coordinator state. *)
    let t =
      if Pid.equal (coord_of t t.round) t.self && t.coord = None then
        { t with coord = Some (fresh_coord t.round) }
      else t
    in
    let outs =
      outs
      @ [ To (coord_of t t.round, Est { round = t.round; estimate = t.estimate; ts = t.ts }) ]
    in
    match t.coord with
    | Some co ->
      let outs =
        match co.co_proposal with
        | Some v -> outs @ [ All (Propose { round = co.co_round; value = v }) ]
        | None -> outs
      in
      (t, outs, check_decide t co)
    | None -> (t, outs, Continue)
  end

(* Systemic-failure scrambling: arbitrary round/timestamp within bounds,
   lost coordinator bookkeeping. The estimate payload is kept (the
   adversary relocates references, it does not fabricate well-typed
   batches) — a scrambled [ts] is already enough to make a stale estimate
   look locked and force a pre-stabilization disagreement. *)
let corrupt rng t =
  let ts = if Rng.chance rng 0.5 then Rng.int rng 64 else -1 in
  let round = Rng.int rng 64 in
  { t with round; ts; coord = None }

let plant t ~round ~estimate ~ts = { t with round; estimate; ts; coord = None }
