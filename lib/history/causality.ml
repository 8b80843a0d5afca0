open Ftss_util

type t = {
  length : int;
  n : int;
  correct : Pidset.t;
  know : Pidset.t array array; (* know.(r).(p) = K_r(p), r in 0..length *)
  coteries : Pidset.t array; (* coteries.(r), r in 0..length *)
}

let coterie_of_knowledge ~n ~correct know_r =
  (* Intersection of K_r(q) over correct q; the full set when no process is
     correct (vacuous universal quantification). *)
  let acc = ref (Pidset.full n) in
  for q = 0 to n - 1 do
    if Pidset.mem q correct then acc := Pidset.inter !acc know_r.(q)
  done;
  !acc

let analyze (trace : ('s, 'm) Ftss_sync.Trace.t) =
  let n = trace.Ftss_sync.Trace.n in
  let len = Ftss_sync.Trace.length trace in
  (* A runner trace's records carry K_r(p), propagated round by round as
     the trace was built ({!Ftss_sync.Trace.knowledge}); a window's records
     carry their source's, so its own are propagated here. Only the prefix
     coteries, which depend on the declared-correct set, are computed for
     every trace. *)
  let know = Array.make (len + 1) (Array.init n Pidset.singleton) in
  for r = 1 to len do
    let record = trace.Ftss_sync.Trace.records.(r - 1) in
    know.(r) <-
      (if trace.Ftss_sync.Trace.windowed then
         Ftss_sync.Trace.knowledge ~before:know.(r - 1) record.Ftss_sync.Trace.delivered
       else record.Ftss_sync.Trace.know)
  done;
  let correct = Ftss_sync.Trace.correct trace in
  let coteries =
    Array.init (len + 1) (fun r -> coterie_of_knowledge ~n ~correct know.(r))
  in
  { length = len; n; correct; know; coteries }

let length t = t.length
let correct t = t.correct

let check_round t round =
  if round < 0 || round > t.length then
    invalid_arg (Printf.sprintf "Causality: round %d outside 0..%d" round t.length)

let knows t ~round p =
  check_round t round;
  t.know.(round).(p)

let happened_before t ~upto p q = Pidset.mem p (knows t ~round:upto q)

let coterie t ~round =
  check_round t round;
  t.coteries.(round)

let changes t =
  let rec collect r acc =
    if r > t.length then List.rev acc
    else
      let grew = Pidset.diff t.coteries.(r) t.coteries.(r - 1) in
      let acc = if Pidset.is_empty grew then acc else (r, grew) :: acc in
      collect (r + 1) acc
  in
  collect 1 []

let stable_intervals t =
  let rec walk start r acc =
    if r > t.length then List.rev ((start, t.length) :: acc)
    else if Pidset.equal t.coteries.(r) t.coteries.(start) then walk start (r + 1) acc
    else walk r (r + 1) ((start, r - 1) :: acc)
  in
  walk 0 1 []
