open Ftss_util

type state = { c : int; seen_max : int }

type msg = int

type observation = Round_variable of int

let process =
  {
    Sim.name = "drift-round-agreement";
    init = (fun _ -> { c = 1; seen_max = 1 });
    on_tick =
      (fun ctx st ->
        (* One local round: adopt max(seen)+1, then broadcast it. *)
        let c = max st.c st.seen_max + 1 in
        Sim.broadcast ctx c;
        Sim.observe ctx (Round_variable c);
        { c; seen_max = c });
    on_message =
      (fun _ st ~src:_ incoming -> { st with seen_max = max st.seen_max incoming });
  }

let corrupt rng ~bound _pid _st =
  let c = Rng.int rng bound in
  { c; seen_max = c }

type report = { converged_from : int option; final_spread : int }

(* One unit for the +1 adoption lag, ceil(delay/round) for message
   staleness, and one more for the phase stagger: processes step at
   different instants, so a late-phase process can leapfrog an
   early-phase one by a unit before the latter's next step. *)
let spread_bound (config : Sim.config) =
  let _, hi = config.Sim.delay_after_gst in
  2 + ((hi + config.Sim.tick_interval - 1) / config.Sim.tick_interval)

let analyze (result : (state, observation) Sim.result) ~config =
  let bound = spread_bound config in
  let correct = Sim.correct_set config in
  let latest = Hashtbl.create 8 in
  let last_violation = ref (-1) in
  let spread () =
    let values = Hashtbl.fold (fun _ v acc -> v :: acc) latest [] in
    match values with
    | [] -> 0
    | v :: rest ->
      let lo = List.fold_left min v rest and hi = List.fold_left max v rest in
      hi - lo
  in
  let final = ref 0 in
  List.iter
    (fun (time, pid, Round_variable c) ->
      if Pidset.mem pid correct then begin
        Hashtbl.replace latest pid c;
        (* Only judge once every correct process has reported. *)
        if Hashtbl.length latest = Pidset.cardinal correct then begin
          let s = spread () in
          final := s;
          if s > bound then last_violation := max !last_violation time
        end
      end)
    result.Sim.log;
  let converged_from =
    let t = !last_violation + 1 in
    if Hashtbl.length latest < Pidset.cardinal correct || t >= result.Sim.end_time then None
    else Some t
  in
  { converged_from; final_spread = !final }
