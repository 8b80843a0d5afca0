open Ftss_util

(* The open-workload generator driving experiment E14: millions of client
   sessions issuing get/put/cas/delete operations against Zipfian keys,
   with periodic burst arrivals. The ops are generated from the seed
   before the simulation starts, and op ids are arrival-ordered indices,
   so a run is replayable. Nothing else is kept per op: arrivals are a
   per-tick count of ops arrived plus every 64th op's tick, and an op's
   replica is computed from its id. *)

type spec = {
  ops : int;  (* total operations over the run *)
  sessions : int;  (* distinct client sessions *)
  keys : int;  (* key-space size *)
  theta : float;  (* Zipf skew; 0.0 = uniform *)
  window : int;  (* arrivals span ticks [1, window] *)
  burst_every : int;  (* burst period in ticks; 0 = no bursts *)
  burst_len : int;  (* ticks per burst *)
  burst_mult : float;  (* arrival-rate multiplier during a burst *)
  seed : int;
}

let default_spec =
  {
    ops = 100_000;
    sessions = 1_000_000;
    keys = 65_536;
    theta = 0.9;
    window = 20_000;
    burst_every = 2_000;
    burst_len = 200;
    burst_mult = 4.0;
    seed = 1;
  }

type t = {
  spec : spec;
  n : int;
  ops : Kv.op array;  (* index = op id, ascending arrival time *)
  upto : int array;  (* upto.(t) = ops arrived by tick t, for t in [0, window] *)
  coarse : int array;  (* coarse.(j) = arrival tick of op 64j *)
  mutable by_origin : int array array;  (* per replica: op ids; [||] until asked *)
}

let spec t = t.spec
let total t = Array.length t.ops
let op t i = t.ops.(i)
let origin t i = i mod t.spec.sessions mod t.n

(* Op [i] arrives at the first tick [a] with [upto.(a) > i]. Arrivals
   ascend with ids, so [a] lies between the arrivals of ops [64j] and
   [64(j+1)] (the window's end for the last bucket), and a binary search
   over that span finds it exactly. *)
let arrival t i =
  if i < 0 || i >= Array.length t.ops then invalid_arg "Workload.arrival";
  let j = i lsr 6 in
  let lo = ref t.coarse.(j)
  and hi =
    ref (if j + 1 < Array.length t.coarse then t.coarse.(j + 1) else t.spec.window)
  in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.upto.(mid) > i then hi := mid else lo := mid + 1
  done;
  !lo

(* Built on the first call and cached in a mutable field rather than a
   [Lazy.t]: two domains forcing one lazy value raise, while two domains
   building this array both store the same partition. *)
let per_replica t p =
  if Array.length t.by_origin = 0 then begin
    let counts = Array.make t.n 0 in
    for id = 0 to total t - 1 do
      let q = origin t id in
      counts.(q) <- counts.(q) + 1
    done;
    let by_origin = Array.map (fun c -> Array.make c 0) counts in
    Array.fill counts 0 t.n 0;
    for id = 0 to total t - 1 do
      let q = origin t id in
      by_origin.(q).(counts.(q)) <- id;
      counts.(q) <- counts.(q) + 1
    done;
    t.by_origin <- by_origin
  end;
  t.by_origin.(p)

(* Zipfian sampling: key [k] is drawn for one uniform [r] in [0, total)
   when [k] is the smallest index with [cdf.(k) > r] (the last key if
   rounding ever lets [r] reach [total]). *)
let zipf_cdf ~keys ~theta =
  let cdf = Array.make keys 0.0 in
  let acc = ref 0.0 in
  for k = 0 to keys - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) theta);
    cdf.(k) <- !acc
  done;
  cdf

(* Inversion through a guide table (Chen & Asau): one bucket of
   [0, total) per key, each holding the answer at its left edge. A draw
   starts at its bucket's entry, walks down while [cdf.(k-1) > r], then
   up while [cdf.(k) <= r]. The walk, not the table, makes the result
   exact: it stops where [cdf.(k) > r] and [k = 0] or [cdf.(k-1) <= r],
   and the partial sums of positive terms never decrease, so that [k] is
   the smallest one whatever the starting entry. A bucket holds one key
   on average, so a draw costs about one probe, not log2(keys). *)
type sampler = { cdf : float array; guide : int array; total : float; scale : float }

let sampler cdf =
  let keys = Array.length cdf in
  let total = cdf.(keys - 1) in
  let scale = float_of_int keys /. total in
  let guide = Array.make keys 0 in
  let k = ref 0 in
  for j = 0 to keys - 1 do
    let edge = float_of_int j /. scale in
    while !k < keys - 1 && cdf.(!k) <= edge do
      incr k
    done;
    guide.(j) <- !k
  done;
  { cdf; guide; total; scale }

let sample_key rng { cdf; guide; total; scale } =
  let last = Array.length cdf - 1 in
  let r = Rng.float rng total in
  let k = ref guide.(max 0 (min last (int_of_float (r *. scale)))) in
  while !k > 0 && cdf.(!k - 1) > r do
    decr k
  done;
  while !k < last && cdf.(!k) <= r do
    incr k
  done;
  !k

(* Arrival schedule: each tick carries weight 1.0, or [burst_mult] inside
   a burst; op [i] arrives at the tick where the cumulative weight first
   reaches fraction [i/ops] of the total, and ops that rounding leaves
   over arrive at the window's last tick. Returns [upto] and [coarse] as
   [t] holds them. *)
let arrival_index (spec : spec) =
  let weight t =
    if
      spec.burst_every > 0
      && (t - 1) mod spec.burst_every < spec.burst_len
    then spec.burst_mult
    else 1.0
  in
  let total_w = ref 0.0 in
  for t = 1 to spec.window do
    total_w := !total_w +. weight t
  done;
  let upto = Array.make (spec.window + 1) 0 in
  let coarse = Array.make ((spec.ops + 63) / 64) spec.window in
  let assigned = ref 0 and cum = ref 0.0 in
  for t = 1 to spec.window do
    cum := !cum +. weight t;
    let k =
      min spec.ops (int_of_float (Float.round (float_of_int spec.ops *. !cum /. !total_w)))
    in
    (* Ops [assigned, k) arrive now; the multiples of 64 among them open
       their buckets. *)
    if k > !assigned then begin
      for j = (!assigned + 63) / 64 to (k - 1) / 64 do
        coarse.(j) <- t
      done;
      assigned := k
    end;
    upto.(t) <- !assigned
  done;
  upto.(spec.window) <- spec.ops;
  (upto, coarse)

let create ~n (spec : spec) =
  if n < 1 then invalid_arg "Workload.create: n < 1";
  if spec.ops < 0 then invalid_arg "Workload.create: ops < 0";
  if spec.sessions < 1 then invalid_arg "Workload.create: sessions < 1";
  if spec.keys < 1 then invalid_arg "Workload.create: keys < 1";
  if spec.window < 1 then invalid_arg "Workload.create: window < 1";
  let rng = Rng.create spec.seed in
  let zipf = sampler (zipf_cdf ~keys:spec.keys ~theta:spec.theta) in
  let upto, coarse = arrival_index spec in
  let ops =
    Array.init spec.ops (fun id ->
        let key = sample_key rng zipf in
        let roll = Rng.float rng 1.0 in
        if roll < 0.50 then
          { Kv.id; kind = Kv.Put; key; v1 = Rng.int rng 1_000_000; v2 = 0 }
        else if roll < 0.75 then { Kv.id; kind = Kv.Get; key; v1 = 0; v2 = 0 }
        else if roll < 0.90 then
          (* A small expected value makes some compare-and-swaps succeed. *)
          { Kv.id; kind = Kv.Cas; key; v1 = Rng.int rng 16; v2 = Rng.int rng 1_000_000 }
        else { Kv.id; kind = Kv.Delete; key; v1 = 0; v2 = 0 })
  in
  { spec; n; ops; upto; coarse; by_origin = [||] }
