let require_nonempty name xs = if xs = [] then invalid_arg (name ^ ": empty sample")

let mean xs =
  require_nonempty "Stats.mean" xs;
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile p xs =
  require_nonempty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of [0,100]";
  let sorted = List.sort Float.compare xs in
  let n = List.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let idx = Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)) in
  List.nth sorted idx

let max xs =
  require_nonempty "Stats.max" xs;
  List.fold_left Float.max Float.neg_infinity xs
