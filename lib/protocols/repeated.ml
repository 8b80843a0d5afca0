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
