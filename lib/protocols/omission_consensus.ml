open Ftss_util
module Protocol = Ftss_sync.Protocol

type state = { values : Values.t; distrusted : Pidset.t }

(* The values of the senders outside [distrusted], merged into [acc]. A
   set already held adds nothing, so its union is skipped rather than
   rebuilding an equal set. A one-value set is not checked: its union is
   an insertion, which returns [acc] itself when the value is held. *)
let rec merge distrusted acc = function
  | [] -> acc
  | { Protocol.src; payload = { values; _ } } :: rest ->
    let skip =
      Pidset.mem src distrusted
      || Values.is_empty values
      || (Values.min_elt values <> Values.max_elt values && Values.subset values acc)
    in
    merge distrusted (if skip then acc else Values.union acc values) rest

let make ~n ~f ~propose =
  if f < 0 then invalid_arg "Omission_consensus.make: negative f";
  let everyone = Pidset.full n in
  {
    Ftss_core.Canonical.name = "omission-consensus";
    final_round = f + 2;
    s_init = (fun p -> { values = Values.singleton (propose p); distrusted = Pidset.empty });
    transition =
      (fun _ s deliveries _k ->
        let senders =
          List.fold_left
            (fun acc { Protocol.src; _ } -> Pidset.add src acc)
            Pidset.empty deliveries
        in
        let distrusted = Pidset.union s.distrusted (Pidset.diff everyone senders) in
        let values = merge distrusted s.values deliveries in
        { values; distrusted });
    decide = (fun s -> Values.min_elt_opt s.values);
  }

let corrupt_state rng ~n _pid _s =
  let size = Rng.int_in rng 1 3 in
  let values =
    List.fold_left
      (fun acc _ -> Values.add (Rng.int rng 49) acc)
      Values.empty
      (List.init size Fun.id)
  in
  let distrusted = Pidset.of_pred n (fun _ -> Rng.bool rng) in
  { values; distrusted }
