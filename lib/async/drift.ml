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

type report = { converged : Sim.verdict; final_spread : int }

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
  let spread () =
    let lo, hi =
      Hashtbl.fold (fun _ v (lo, hi) -> (min lo v, max hi v)) latest (max_int, min_int)
    in
    if hi < lo then 0 else hi - lo
  in
  let final = ref 0 in
  let judged =
    List.filter_map
      (fun (time, pid, Round_variable c) ->
        if not (Pidset.mem pid correct) then None
        else begin
          Hashtbl.replace latest pid c;
          (* Only judge once every correct process has reported. *)
          if Hashtbl.length latest < Pidset.cardinal correct then None
          else begin
            final := spread ();
            Some (time, pid, !final > bound)
          end
        end)
      result.Sim.log
  in
  { converged = Sim.settle config judged; final_spread = !final }
