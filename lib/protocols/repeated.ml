open Ftss_util
module Trace = Ftss_sync.Trace
module Compiler = Ftss_core.Compiler
module Spec = Ftss_core.Spec

type 'd completion = {
  round : int;
  pid : Pid.t;
  iteration : int;
  decision : 'd option;
}

let completions_of_record record =
  let found = ref [] in
  Array.iteri
    (fun p before ->
      match (before, record.Trace.states_after.(p)) with
      | Some b, Some a when a.Compiler.completed = b.Compiler.completed + 1 ->
        found :=
          {
            round = record.Trace.round;
            pid = p;
            iteration = a.Compiler.completed - 1;
            decision = a.Compiler.last_decision;
          }
          :: !found
      | Some _, Some _ | None, _ | _, None -> ())
    record.Trace.states_before;
  List.rev !found

let completions trace =
  let rec loop round acc =
    if round > Trace.length trace then List.concat (List.rev acc)
    else loop (round + 1) (completions_of_record (Trace.record trace ~round) :: acc)
  in
  loop 1 []

let decisions_by_round trace ~faulty =
  let correct_only cs = List.filter (fun c -> not (Pidset.mem c.pid faulty)) cs in
  let rec loop round acc =
    if round > Trace.length trace then List.rev acc
    else
      let cs = correct_only (completions_of_record (Trace.record trace ~round)) in
      let acc = if cs = [] then acc else (round, cs) :: acc in
      loop (round + 1) acc
  in
  loop 1 []

(* One round's completions satisfy Σ when every correct process alive
   through the round completed, every decision is present and equal, and
   the common decision is legal. *)
let round_satisfies_sigma trace ~faulty ~valid (round, cs) =
  let alive_correct =
    Pidset.of_pred trace.Trace.n (fun p ->
        (not (Pidset.mem p faulty)) && Trace.alive trace ~round p)
  in
  let completers = Pidset.of_list (List.map (fun c -> c.pid) cs) in
  Pidset.equal completers alive_correct
  &&
  match cs with
  | [] -> true
  | first :: _ -> (
    match first.decision with
    | None -> false
    | Some d ->
      valid d && List.for_all (fun c -> c.decision = Some d) cs)

let sigma_plus ~final_round:_ ~valid () =
  {
    Spec.name = "sigma-plus";
    holds =
      (fun trace ~faulty ->
        List.for_all
          (round_satisfies_sigma trace ~faulty ~valid)
          (decisions_by_round trace ~faulty));
  }

let round_and_sigma ~final_round ~valid () =
  Spec.conj "round+sigma-plus"
    [ Compiler.round_spec (); sigma_plus ~final_round ~valid () ]

let count_agreeing_iterations trace ~faulty ~valid =
  let grouped = decisions_by_round trace ~faulty in
  let agreeing =
    List.length (List.filter (round_satisfies_sigma trace ~faulty ~valid) grouped)
  in
  (List.length grouped, agreeing)

(* --- Repeated asynchronous consensus: one simulation per instance --- *)

module Consensus = Ftss_async.Consensus
module Sim = Ftss_async.Sim
module Ewfd = Ftss_async.Ewfd

type async_outcome = {
  instances_decided : int;
  decisions : int;
  disagreements : int;
  end_time : int;
}

let async_config ~n ~seed ~horizon =
  {
    (Sim.default_config ~n ~seed) with
    Sim.gst = 50;
    horizon;
    tick_interval = 10;
    delay_before_gst = (1, 20);
    delay_after_gst = (1, 4);
  }

let async_oracle ~n ~seed ~gst =
  Ewfd.make (Rng.create seed) ~n ~crashed:(fun _ -> None) ~gst ~trusted:0
    ~noise:0.1

let run_async ?obs ~n ~seed ~style ~propose ~instances ~horizon_per_instance () =
  (* Every instance gets its own config, oracle and rng seeds; only the
     event-queue arena is shared, cleared and reused between them. *)
  let pool = Sim.pool () in
  let decided = ref 0 and total = ref 0 and split = ref 0 and end_time = ref 0 in
  for i = 0 to instances - 1 do
    let config =
      async_config ~n ~seed:(seed + (2 * i)) ~horizon:(50 + horizon_per_instance)
    in
    let oracle =
      async_oracle ~n ~seed:(seed + (2 * i) + 1) ~gst:config.Sim.gst
    in
    (* Each simulation hosts logical instance [i]: shift the proposal
       function so instance [i] consumes proposal stream [i]. *)
    let propose p j = propose p (i + j) in
    let result =
      Sim.run ?obs ~pool config
        (Consensus.process ?obs ~n ~style ~propose ~oracle ())
    in
    let ds = Consensus.decisions result in
    if List.exists (fun d -> d.Consensus.d_instance = 0) ds then incr decided;
    total := !total + List.length ds;
    let grouped = Consensus.per_instance ds ~correct:(Sim.correct_set config) in
    split := !split + List.length (Consensus.disagreements grouped);
    end_time := max !end_time result.Sim.end_time
  done;
  {
    instances_decided = !decided;
    decisions = !total;
    disagreements = !split;
    end_time = !end_time;
  }
