open Ftss_util
module Trace = Ftss_sync.Trace

type ('s, 'm) t = {
  name : string;
  holds : ('s, 'm) Trace.t -> faulty:Pidset.t -> bool;
}

let conj name specs =
  { name; holds = (fun trace ~faulty -> List.for_all (fun s -> s.holds trace ~faulty) specs) }

let pointwise name check =
  {
    name;
    holds =
      (fun trace ~faulty ->
        let rec loop round =
          if round > Trace.length trace then true
          else check ~faulty (Trace.record trace ~round) && loop (round + 1)
        in
        loop 1);
  }

(* The round variables of the correct, non-crashed processes in a state
   vector, as a list. *)
let correct_rounds ~round_of ~faulty states =
  let values = ref [] in
  Array.iteri
    (fun p st ->
      if not (Pidset.mem p faulty) then
        match st with Some s -> values := round_of s :: !values | None -> ())
    states;
  !values

let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (Int.equal x) rest

let round_agreement ~round_of =
  pointwise "round-agreement" (fun ~faulty record ->
      all_equal (correct_rounds ~round_of ~faulty record.Trace.states_before))

(* The rate condition constrains consecutive rounds *within* the history:
   c_p at the start of round r+1 is c_p at the start of round r, plus one.
   The transition out of the final round is not checked — a history ending
   at a destabilizing event may legitimately end with a reconciliation
   jump, and Theorem 3's guarantee only covers rounds inside the
   coterie-stable window. *)
let round_rate ~round_of =
  {
    name = "round-rate";
    holds =
      (fun trace ~faulty ->
        let len = Trace.length trace in
        let pair_ok r =
          let ok = ref true in
          let before = (Trace.record trace ~round:r).Trace.states_before in
          let after = (Trace.record trace ~round:(r + 1)).Trace.states_before in
          Array.iteri
            (fun p b ->
              if not (Pidset.mem p faulty) then
                match (b, after.(p)) with
                | Some b, Some a -> if round_of a <> round_of b + 1 then ok := false
                | None, _ | _, None -> ())
            before;
          !ok
        in
        let rec loop r = r >= len || (pair_ok r && loop (r + 1)) in
        loop 1);
  }

let assumption1 ~round_of =
  conj "assumption-1" [ round_agreement ~round_of; round_rate ~round_of ]
