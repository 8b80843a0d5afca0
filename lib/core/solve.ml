module Trace = Ftss_sync.Trace
module Causality = Ftss_history.Causality

type assessment = { solves : bool; measured : int; windows : int }

let ft_solves (spec : ('s, 'm) Spec.t) trace =
  spec.Spec.holds trace ~faulty:trace.Trace.declared_faulty

let ss_solves (spec : ('s, 'm) Spec.t) ~stabilization trace =
  if stabilization < 0 then invalid_arg "Solve.ss_solves: negative stabilization";
  let len = Trace.length trace in
  if len <= stabilization then true
  else
    let suffix = Trace.sub trace ~first:(stabilization + 1) ~last:len in
    spec.Spec.holds suffix ~faulty:Ftss_util.Pidset.empty

let stable_windows trace =
  Causality.stable_intervals (Causality.analyze trace)

(* Σ is required on rounds [x + stabilization + 1 .. y] for each maximal
   coterie-stable interval [x..y]; see the .mli for the bridge to the
   paper's H1·H2·H3·H4 decomposition. *)
let solves_over (spec : ('s, 'm) Spec.t) ~stabilization ~windows trace =
  if stabilization < 0 then invalid_arg "Solve.ftss_solves: negative stabilization";
  List.for_all
    (fun (x, y) ->
      let first = x + stabilization + 1 in
      first > y
      || spec.Spec.holds (Trace.sub trace ~first ~last:y) ~faulty:trace.Trace.declared_faulty)
    windows

let ftss_solves spec ~stabilization trace =
  solves_over spec ~stabilization ~windows:(stable_windows trace) trace

let measure_over (spec : ('s, 'm) Spec.t) ~windows trace =
  let faulty = trace.Trace.declared_faulty in
  (* Per interval [x..y]: the least d with Σ on [x+d+1 .. y]; specs in this
     repository are suffix-closed, so scan d upward. *)
  let per_interval (x, y) =
    let rec search d =
      let first = x + d + 1 in
      if first > y then y - x (* only the empty (vacuous) obligation holds *)
      else
        let sub = Trace.sub trace ~first ~last:y in
        if spec.Spec.holds sub ~faulty then d else search (d + 1)
    in
    if x >= y then 0 else search 0
  in
  List.map (fun interval -> (interval, per_interval interval)) windows

let measured_per_window spec trace = measure_over spec ~windows:(stable_windows trace) trace

let worst per_window = List.fold_left (fun worst (_, d) -> max worst d) 0 per_window

let measured_stabilization spec trace = worst (measured_per_window spec trace)

let assess spec ~stabilization trace =
  let windows = stable_windows trace in
  let solves = solves_over spec ~stabilization ~windows trace in
  let measured = worst (measure_over spec ~windows trace) in
  { solves; measured; windows = List.length windows }
