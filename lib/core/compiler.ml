open Ftss_util
module Protocol = Ftss_sync.Protocol

(* The paper prints normalize(c) = c mod final_round + 1, which maps the
   "good" initial round variable c = 1 to protocol round 2, contradicting
   Figure 2 where c = 1 executes round 1. We use the intent-preserving
   ((c - 1) mod final_round) + 1 so that c = 1..final_round maps to
   k = 1..final_round; see DESIGN.md ("Deviations"). *)
let normalize ~final_round c =
  if final_round < 1 then invalid_arg "Compiler.normalize: final_round < 1";
  ((((c - 1) mod final_round) + final_round) mod final_round) + 1

type ('s, 'd) state = {
  s : 's;
  c : int;
  suspects : Pidset.t;
  last_decision : 'd option;
  completed : int;
}

type 's message = { state : 's; round : int }

(* One pass collects both delivery aggregates: S's evidence (who sent a
   message tagged with round [c]) and the Figure 1 round-agreement
   maximum. *)
let rec scan c heard max_round = function
  | [] -> (heard, max_round)
  | { Protocol.src; payload } :: rest ->
    scan c
      (if payload.round = c then Pidset.add src heard else heard)
      (if payload.round > max_round then payload.round else max_round)
      rest

(* The Π-level messages (sender states), without the senders in
   [suspects] when [suspect_filter] holds. *)
let rec project ~suspect_filter suspects = function
  | [] -> []
  | { Protocol.src; payload } :: rest ->
    if suspect_filter && Pidset.mem src suspects then project ~suspect_filter suspects rest
    else { Protocol.src; payload = payload.state } :: project ~suspect_filter suspects rest

let compile ?(suspect_filter = true) ~n (pi : ('s, 'd) Canonical.t) =
  let pi = Canonical.check pi in
  let final_round = pi.Canonical.final_round in
  let everyone = Pidset.full n in
  let fresh p c completed last_decision =
    { s = pi.Canonical.s_init p; c; suspects = Pidset.empty; last_decision; completed }
  in
  let step p st (deliveries : 's message Protocol.delivery list) =
    let heard_current, max_round = scan st.c Pidset.empty min_int deliveries in
    (* S: previously suspected processes, plus every process from which no
       message tagged with p's current round number arrived this round
       (whether omitted entirely or tagged with a disagreeing round). *)
    let suspects = Pidset.union st.suspects (Pidset.diff everyone heard_current) in
    (* M: the Π-level messages (sender states), with suspects filtered out.
       The [suspect_filter = false] variant exists only for the E8 ablation:
       it lets the "insidious" out-of-date messages of §2.4 through. *)
    let m = project ~suspect_filter suspects deliveries in
    let k = normalize ~final_round st.c in
    let s = pi.Canonical.transition p st.s m k in
    (* Round agreement superimposed on Π (Figure 1 embedded in Figure 3). *)
    let c = max_round + 1 in
    if normalize ~final_round c = 1 then
      (* Iteration boundary: the transition just executed protocol round
         [final_round]; capture its decision, then re-establish Π's initial
         state and an empty suspect set for the next iteration. *)
      fresh p c (st.completed + 1) (pi.Canonical.decide s)
    else { st with s; c; suspects }
  in
  {
    Protocol.name = pi.Canonical.name ^ "+";
    init = (fun p -> fresh p 1 0 None);
    broadcast = (fun _ st -> { state = st.s; round = st.c });
    step;
  }

let round_spec () = Spec.assumption1 ~round_of:(fun st -> st.c)

let stabilization_bound pi = 2 * pi.Canonical.final_round

let corrupt rng ~pi:_ ~n ~c_bound ~corrupt_s p st =
  let c = Rng.int rng c_bound in
  let suspects = Pidset.of_pred n (fun _ -> Rng.bool rng) in
  let s = corrupt_s rng p st.s in
  { st with s; c; suspects }
