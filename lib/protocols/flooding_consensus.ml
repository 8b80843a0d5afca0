module Protocol = Ftss_sync.Protocol
module Faults = Ftss_sync.Faults

type state = Values.t

let make ~f ~propose =
  if f < 0 then invalid_arg "Flooding_consensus.make: negative f";
  {
    Ftss_core.Canonical.name = "flooding-consensus";
    final_round = f + 1;
    s_init = (fun p -> Values.singleton (propose p));
    transition =
      (fun _ s deliveries _k ->
        List.fold_left
          (fun acc { Protocol.payload; _ } ->
            (* A held set's union is skipped, as in [Omission_consensus]. *)
            if
              Values.is_empty payload
              || Values.min_elt payload <> Values.max_elt payload
                 && Values.subset payload acc
            then acc
            else Values.union acc payload)
          s deliveries);
    decide = (fun s -> Values.min_elt_opt s);
  }
