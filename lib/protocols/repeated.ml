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

(* One round of Σ, in one pass over its record with no intermediate
   lists: the correct processes' completions satisfy Σ when every correct
   process alive through the round completed, every decision is present
   and equal, and the common decision is legal. *)
type round_outcome = No_completion | Agreed | Disagreed

let round_outcome trace ~faulty ~valid round =
  let record = trace.Trace.records.(round - 1) in
  let completed = ref false and agreed = ref true and first = ref None in
  for p = 0 to trace.Trace.n - 1 do
    if not (Pidset.mem p faulty) then
      match (record.Trace.states_before.(p), record.Trace.states_after.(p)) with
      | Some b, Some a when a.Compiler.completed = b.Compiler.completed + 1 ->
        if not (Trace.alive trace ~round p) then agreed := false;
        let d = a.Compiler.last_decision in
        if !completed then (if d <> !first then agreed := false)
        else begin
          completed := true;
          first := d;
          match d with Some v when valid v -> () | _ -> agreed := false
        end
      | _ -> if Trace.alive trace ~round p then agreed := false
  done;
  if not !completed then No_completion else if !agreed then Agreed else Disagreed

let sigma_plus ~final_round:_ ~valid () =
  {
    Spec.name = "sigma-plus";
    holds =
      (fun trace ~faulty ->
        let rec from round =
          round > Trace.length trace
          || (round_outcome trace ~faulty ~valid round <> Disagreed && from (round + 1))
        in
        from 1);
  }

let round_and_sigma ~final_round ~valid () =
  Spec.conj "round+sigma-plus"
    [ Compiler.round_spec (); sigma_plus ~final_round ~valid () ]

let count_agreeing_iterations trace ~faulty ~valid =
  let completed = ref 0 and agreeing = ref 0 in
  for round = 1 to Trace.length trace do
    match round_outcome trace ~faulty ~valid round with
    | No_completion -> ()
    | Agreed ->
      incr completed;
      incr agreeing
    | Disagreed -> incr completed
  done;
  (!completed, !agreeing)
