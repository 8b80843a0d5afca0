open Ftss_util

type t = {
  rng : Rng.t;
  n : int;
  crashed : Pid.t -> int option;
  gst : int;
  trusted : Pid.t;
  noise : float;
  designated : Pid.t; (* the one correct observer that suspects crashed processes *)
}

let make rng ~n ~crashed ~gst ~trusted ~noise =
  if Option.is_some (crashed trusted) then
    invalid_arg "Ewfd.make: the trusted process must be correct";
  let designated =
    match List.find_opt (fun p -> crashed p = None) (Pid.all n) with
    | Some p -> p
    | None -> invalid_arg "Ewfd.make: no correct process"
  in
  { rng; n; crashed; gst; trusted; noise; designated }

let detect t ~at ~observer ~subject =
  if Pid.equal observer subject then false
  else if at < t.gst then
    (* Totally unreliable: random suspicion of anyone. *)
    Rng.chance t.rng t.noise
  else
    let subject_crashed =
      match t.crashed subject with Some ct -> ct <= at | None -> false
    in
    if subject_crashed then
      (* Weak completeness: only the designated observer suspects. *)
      Pid.equal observer t.designated
    else if Pid.equal subject t.trusted then
      (* Eventual weak accuracy: never suspected after gst. *)
      false
    else
      (* ◇W still allows false suspicion of other correct processes. *)
      Rng.chance t.rng t.noise
