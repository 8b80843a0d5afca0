open Ftss_util
module Faults = Ftss_sync.Faults

type behavior =
  | Crash of int
  | Mute of int * int
  | Deaf of int * int
  | Isolate of int * int
  | Send_drop of int * Pid.t
  | Recv_drop of int * Pid.t

type corruption = Clean | Zero | Max | Parked of int | Distinct

type params = {
  n : int;
  rounds : int;
  f : int;
  intervals : bool;
  drops : bool;
}

type t = {
  params : params;
  behaviors : (Pid.t * behavior) list;
  corruption : corruption;
}

let validate { n; rounds; f; _ } =
  if n < 2 then invalid_arg "Schedule_enum: n < 2";
  if rounds < 1 then invalid_arg "Schedule_enum: rounds < 1";
  if f < 0 || f >= n then invalid_arg "Schedule_enum: f outside 0..n-1"

let intervals_per_kind rounds = rounds * (rounds + 1) / 2

let behaviors_per_process { n; rounds; intervals; drops; _ } =
  rounds
  + (if intervals then 3 * intervals_per_kind rounds else 0)
  + if drops then 2 * rounds * (n - 1) else 0

let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

let pow base e =
  let acc = ref 1 in
  for _ = 1 to e do
    acc := !acc * base
  done;
  !acc

let count_schedules params =
  validate params;
  let b = behaviors_per_process params in
  let total = ref 0 in
  for k = 0 to params.f do
    total := !total + (binomial params.n k * pow b k)
  done;
  !total

let corruptions params = [ Clean; Zero; Max; Parked params.rounds; Distinct ]

let count params = count_schedules params * List.length (corruptions params)

(* --- index decoding --- *)

(* Everything about [params] that decoding an index needs, computed once:
   [get] builds one per call, [enumerate] one per space. Case [i] is
   schedule [i / ncorr] under corruption [i mod ncorr]. Schedules are
   numbered by fault count [k] first (block [k] holds C(n,k) * b^k of
   them), then by the lexicographic rank of the faulty subset, then by
   the base-[b] behaviour digits of its members. *)
type ctx = {
  cparams : params;
  total : int;  (* count cparams *)
  corrs : corruption array;
  b : int;  (* behaviours per process *)
  pow : int array;  (* pow.(k) = b^k, k = 0..f *)
  block : int array;  (* block.(k) = C(n,k) * b^k *)
  catalogue : behavior array;
      (* digits below [Array.length catalogue]: the behaviours that name no
         peer (crashes, then mute/deaf/isolate intervals by (first, last)),
         allocated once and shared by every schedule that uses them. The
         point drops above them name a peer relative to their owner and
         are decoded per use, which keeps a context O(rounds^2 + f) to
         build however large [n] is. *)
}

let context params =
  validate params;
  let { n; rounds; f; intervals; _ } = params in
  let b = behaviors_per_process params in
  let pow = Array.make (f + 1) 1 in
  for k = 1 to f do
    pow.(k) <- pow.(k - 1) * b
  done;
  let block = Array.init (f + 1) (fun k -> binomial n k * pow.(k)) in
  let corrs = Array.of_list (corruptions params) in
  let per_kind = intervals_per_kind rounds in
  (* The j-th (a, b) interval with 1 <= a <= b <= rounds, by a then b. *)
  let rec interval a j =
    let here = rounds - a + 1 in
    if j < here then (a, a + j) else interval (a + 1) (j - here)
  in
  let catalogue =
    Array.init
      (rounds + if intervals then 3 * per_kind else 0)
      (fun d ->
        if d < rounds then Crash (d + 1)
        else
          let a, b = interval 1 ((d - rounds) mod per_kind) in
          match (d - rounds) / per_kind with
          | 0 -> Mute (a, b)
          | 1 -> Deaf (a, b)
          | _ -> Isolate (a, b))
  in
  {
    cparams = params;
    total = Array.fold_left ( + ) 0 block * Array.length corrs;
    corrs;
    b;
    pow;
    block;
    catalogue;
  }

(* The behaviour with digit [d] for process [pid]. *)
let behavior ctx ~pid d =
  let shared = Array.length ctx.catalogue in
  if d < shared then ctx.catalogue.(d)
  else begin
    (* Point drops: [rounds * (n-1)] sends, then as many receives; the
       peer is the ((d - shared) mod (n-1))-th pid other than [pid]. *)
    let n = ctx.cparams.n in
    let per_dir = ctx.cparams.rounds * (n - 1) in
    let i = d - shared in
    let j = i mod per_dir in
    let round = (j / (n - 1)) + 1 in
    let peer = j mod (n - 1) in
    let other = if peer < pid then peer else peer + 1 in
    if i < per_dir then Send_drop (round, other) else Recv_drop (round, other)
  end

(* Lexicographic unranking of the k-subsets of [start .. n-1]. A
   1-subset is found directly: every candidate heads C(n-start-1, 0) = 1
   of them. *)
let rec unrank_subset ~n k rank start =
  if k = 0 then []
  else if k = 1 then [ start + rank ]
  else
    let with_start = binomial (n - start - 1) (k - 1) in
    if rank < with_start then start :: unrank_subset ~n (k - 1) rank (start + 1)
    else unrank_subset ~n k (rank - with_start) (start + 1)

let schedule ctx s =
  let rec locate k s = if s < ctx.block.(k) then (k, s) else locate (k + 1) (s - ctx.block.(k)) in
  let k, s = locate 0 s in
  let digits = ctx.pow.(k) in
  List.mapi
    (fun j pid -> (pid, behavior ctx ~pid (s mod digits / ctx.pow.(k - 1 - j) mod ctx.b)))
    (unrank_subset ~n:ctx.cparams.n k (s / digits) 0)

let decode ctx i =
  let ncorr = Array.length ctx.corrs in
  { params = ctx.cparams; behaviors = schedule ctx (i / ncorr); corruption = ctx.corrs.(i mod ncorr) }

let get params i =
  let ctx = context params in
  if i < 0 || i >= ctx.total then
    invalid_arg (Printf.sprintf "Schedule_enum.get: index %d outside 0..%d" i (ctx.total - 1));
  decode ctx i

(* Each schedule is decoded once; its behaviour list is shared by the
   cases that pair it with each corruption class. *)
let enumerate params =
  let ctx = context params in
  let ncorr = Array.length ctx.corrs in
  let cases = Array.make ctx.total (decode ctx 0) in
  for s = 0 to (ctx.total / ncorr) - 1 do
    let behaviors = schedule ctx s in
    for c = 0 to ncorr - 1 do
      cases.((s * ncorr) + c) <- { params; behaviors; corruption = ctx.corrs.(c) }
    done
  done;
  cases

let to_faults t =
  let events =
    List.concat_map
      (fun (pid, behavior) ->
        match behavior with
        | Crash round -> [ Faults.Crash { pid; round } ]
        | Mute (first, last) -> [ Faults.Mute { pid; first; last } ]
        | Deaf (first, last) -> [ Faults.Deaf { pid; first; last } ]
        | Isolate (first, last) -> [ Faults.Isolate { pid; first; last } ]
        | Send_drop (round, dst) ->
          [ Faults.Blame { pid }; Faults.Drop { src = pid; dst; round } ]
        | Recv_drop (round, src) ->
          [ Faults.Blame { pid }; Faults.Drop { src; dst = pid; round } ])
      t.behaviors
  in
  Faults.of_events ~n:t.params.n events

(* A prime far above every round horizon used in experiments, so Max
   never collides with a legitimately reachable round variable. *)
let huge = 999_983

let corrupt_int corruption p v =
  match corruption with
  | Clean -> v
  | Zero -> 0
  | Max -> huge
  | Parked k -> k
  | Distinct -> 1 + ((p + 1) * 97)

let crashes t =
  List.filter_map
    (fun (pid, b) -> match b with Crash r -> Some (pid, r) | _ -> None)
    t.behaviors

(* --- Canonicalization under pid permutation --- *)

let behavior_pid_ref = function
  | Send_drop (_, q) | Recv_drop (_, q) -> Some q
  | Crash _ | Mute _ | Deaf _ | Isolate _ -> None

let support t =
  let add acc p = if List.mem p acc then acc else p :: acc in
  List.sort Int.compare
    (List.fold_left
       (fun acc (p, b) ->
         let acc = add acc p in
         match behavior_pid_ref b with Some q -> add acc q | None -> acc)
       [] t.behaviors)

let permute perm t =
  let behaviors =
    List.map
      (fun (p, b) ->
        let b =
          match b with
          | Send_drop (r, q) -> Send_drop (r, perm q)
          | Recv_drop (r, q) -> Recv_drop (r, perm q)
          | (Crash _ | Mute _ | Deaf _ | Isolate _) as b -> b
        in
        (perm p, b))
      t.behaviors
    |> List.sort compare
  in
  { t with behaviors }

let rename assoc t = permute (fun p -> match List.assoc_opt p assoc with Some q -> q | None -> p) t

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun rest -> x :: rest) (permutations (List.filter (fun y -> y <> x) l)))
      l

(* Orbit-representative support size above which we settle for the
   rank-relabelled member instead of the lexicographic minimum: both are
   deterministic members of the case's orbit (so grouping by them never
   merges distinct orbits), but the factorial search is only worth it
   while the support is small — which it always is for the fault budgets
   the checker enumerates (|support| <= 2f). *)
let exact_support_limit = 8

let canonical t =
  match support t with
  | [] -> t
  | s ->
    let m = List.length s in
    let ranked = rename (List.mapi (fun i p -> (p, i)) s) t in
    if m > exact_support_limit then ranked
    else
      (* The support now occupies pids 0..m-1; minimize over its m!
         internal permutations. Any full-universe permutation decomposes
         into (map support into 0..m-1) ∘ (permute within 0..m-1), so the
         minimum over this subgroup is the minimum over the orbit. *)
      List.fold_left
        (fun best perm ->
          let img = Array.of_list perm in
          let candidate = permute (fun p -> if p < m then img.(p) else p) ranked in
          if compare candidate best < 0 then candidate else best)
        ranked
        (permutations (List.init m Fun.id))

(* The corruption class's rank: the key [prefix_order] sorts round 0 by. *)
let corruption_weight = function
  | Clean -> 0
  | Zero -> 1
  | Parked _ -> 2
  | Max -> 3
  | Distinct -> 4

(* --- Prefix digits: which cases share their first rounds --- *)

(* Round [r] of an execution depends on the schedule only through the
   processes crashed at [r] and the links dropped at [r] between live
   processes (see [Runner.step]). A round's digit lists that as integer
   atoms — crashed p, mute p, deaf p, isolate p, link src->dst dropped —
   sorted, so two schedules whose atoms agree at [r] crash and drop
   exactly the same there, whichever pids are declared faulty. A point
   drop becomes a link atom only when no other atom of the round already
   accounts for it (a crashed endpoint, a mute sender, a deaf receiver):
   such drops realize nothing. No hashing: distinct effects get distinct
   atoms.

   A behaviour is first packed into one int — kind, owner and two
   round/peer fields of [field_bits] each — so the radix passes read a
   flat int array instead of chasing the case's list. *)
let field_bits = 19

let field_mask = (1 lsl field_bits) - 1

(* -1 when a field falls outside [0, 2^field_bits); 0 is never a packed
   behaviour. *)
let encode kind pid x y =
  if pid lor x lor y land lnot field_mask = 0 then
    (((((kind lsl field_bits) lor pid) lsl field_bits) lor x) lsl field_bits) lor y
  else -1

let pack (pid, b) =
  match b with
  | Crash r -> encode 1 pid r 0
  | Mute (a, z) -> encode 2 pid a z
  | Deaf (a, z) -> encode 3 pid a z
  | Isolate (a, z) -> encode 4 pid a z
  | Send_drop (r, q) -> encode 5 pid r q
  | Recv_drop (r, q) -> encode 6 pid r q

let kind_of code = code lsr (3 * field_bits)
let pid_of code = (code lsr (2 * field_bits)) land field_mask
let x_of code = (code lsr field_bits) land field_mask
let y_of code = code land field_mask

(* Atom kinds: 0 crashed, 1 mute, 2 deaf, 3 isolate, 4 link. Atoms lie
   in [1, 5n^2]. *)
let atom_code ~n kind pid peer = (((((kind * n) + pid) * n) + peer) + 1)

let atom_bound ~n = 5 * n * n

(* Whether the packed behaviour does anything at round [r]. *)
let acts code r =
  let x = x_of code in
  match kind_of code with
  | 1 -> r >= x
  | 2 | 3 | 4 -> x <= r && r <= y_of code
  | 5 | 6 -> r = x
  | _ -> false

(* A drop on src->dst at [r] realizes nothing when another behaviour of
   the schedule crashes an endpoint, mutes [src] or deafens [dst] then. *)
let covered codes base slots r ~src ~dst =
  let hit = ref false in
  for j = base to base + slots - 1 do
    let c = codes.(j) in
    if acts c r then begin
      let p = pid_of c in
      match kind_of c with
      | 1 -> if p = src || p = dst then hit := true
      | 2 -> if p = src then hit := true
      | 3 -> if p = dst then hit := true
      | 4 -> if p = src || p = dst then hit := true
      | _ -> ()
    end
  done;
  !hit

(* Writes round [r]'s atoms for the packed behaviours
   [codes.(base .. base + slots - 1)] into [out], ascending, and returns
   how many there are. *)
let round_atoms ~n codes base slots r out =
  let k = ref 0 in
  for j = base to base + slots - 1 do
    let c = codes.(j) in
    if acts c r then begin
      let kind = kind_of c and pid = pid_of c in
      let a =
        if kind <= 4 then atom_code ~n (kind - 1) pid 0
        else
          let src, dst = if kind = 5 then (pid, y_of c) else (y_of c, pid) in
          if covered codes base slots r ~src ~dst then 0 else atom_code ~n 4 src dst
      in
      if a <> 0 then begin
        (* insertion into the sorted prefix *)
        let i = ref !k in
        while !i > 0 && out.(!i - 1) > a do
          out.(!i) <- out.(!i - 1);
          decr i
        done;
        out.(!i) <- a;
        incr k
      end
    end
  done;
  !k

(* [t]'s behaviours packed into [codes.(0 .. k-1)]; [k], or -1 when one
   does not pack. *)
let pack_into t codes =
  let rec go j = function
    | [] -> j
    | b :: l ->
      let p = pack b in
      if p < 0 then -1
      else begin
        codes.(j) <- p;
        go (j + 1) l
      end
  in
  go 0 t.behaviors

let shared_prefix a b =
  if not ((a.params == b.params || a.params = b.params) && a.corruption = b.corruption) then -1
  else begin
    let sa = List.length a.behaviors and sb = List.length b.behaviors in
    let pa = Array.make sa 0 and pb = Array.make sb 0 in
    if pack_into a pa < 0 || pack_into b pb < 0 then 0
    else begin
      let n = a.params.n in
      let oa = Array.make sa 0 and ob = Array.make sb 0 in
      let rec depth r =
        if r > a.params.rounds then r - 1
        else begin
          let k = round_atoms ~n pa 0 sa r oa in
          if k <> round_atoms ~n pb 0 sb r ob then r - 1
          else begin
            let i = ref 0 in
            while !i < k && oa.(!i) = ob.(!i) do
              incr i
            done;
            if !i < k then r - 1 else depth (r + 1)
          end
        end
      in
      depth 1
    end
  end

let prefix_order cases =
  let len = Array.length cases in
  let order = Array.init len Fun.id in
  (* One read of every case: its behaviours, packed, at
     [codes.(i * slots + j)] and its corruption weight at [weight.[i]].
     [slots] starts at the first case's fault budget and the pass starts
     over, wider, if a later case carries more behaviours. *)
  let weight = Bytes.create len in
  let rec pack_all slots =
    let codes = Array.make (len * slots) 0 in
    let rounds = ref 0 and n = ref 0 and packable = ref true and wider = ref slots in
    let rec fill base j = function
      | [] -> ()
      | b :: l ->
        let p = pack b in
        if p < 0 then packable := false
        else if j >= slots then wider := max !wider (j + 1)
        else codes.(base + j) <- p;
        fill base (j + 1) l
    in
    for i = 0 to len - 1 do
      let c = cases.(i) in
      if c.params.rounds > !rounds then rounds := c.params.rounds;
      if c.params.n > !n then n := c.params.n;
      Bytes.unsafe_set weight i (Char.unsafe_chr (corruption_weight c.corruption));
      fill (i * slots) 0 c.behaviors
    done;
    if !wider > slots && !packable then pack_all !wider
    else (slots, codes, !rounds, !n, !packable)
  in
  let slots, codes, rounds, n, packable =
    pack_all (if len = 0 then 0 else cases.(0).params.f)
  in
  if not (packable && len > 1) then order
  else begin
    (* Stable LSD radix sort, least significant digit first: round
       [rounds], ..., round 1, then round 0's corruption class. A round's
       digit is its atoms, packed [abits] apiece into group keys of at
       most 62 bits and sorted in chunks of at most 16 bits, so the count
       array stays small whatever [n] is; for enumerated cases of up to
       ~10^3 processes and f <= 2 a round is one group. *)
    let rec bits v = if v = 0 then 0 else 1 + bits (v lsr 1) in
    let abits = bits (atom_bound ~n) in
    let per_group = max 1 (62 / abits) in
    let count = Array.make ((1 lsl 16) + 1) 0 in
    let order = ref order and spare = ref (Array.make len 0) in
    let pass ~width digit =
      let src = !order and dst = !spare in
      let buckets = (1 lsl width) + 1 in
      Array.fill count 0 buckets 0;
      for pos = 0 to len - 1 do
        let d = digit src.(pos) + 1 in
        count.(d) <- count.(d) + 1
      done;
      for d = 1 to buckets - 1 do
        count.(d) <- count.(d) + count.(d - 1)
      done;
      for pos = 0 to len - 1 do
        let i = src.(pos) in
        let d = digit i in
        dst.(count.(d)) <- i;
        count.(d) <- count.(d) + 1
      done;
      order := dst;
      spare := src
    in
    (* [key.(i)] is case [i]'s group key for the round being sorted,
       computed in case order: sequential reads of [codes]. *)
    let key = Array.make len 0 in
    let atoms = Array.make slots 0 in
    for r = rounds downto 1 do
      let g = ref (((slots + per_group - 1) / per_group) - 1) in
      while !g >= 0 do
        let lo = !g * per_group in
        let hi = min slots (lo + per_group) in
        for i = 0 to len - 1 do
          let k = round_atoms ~n codes (i * slots) slots r atoms in
          let acc = ref 0 in
          for j = lo to hi - 1 do
            acc := (!acc lsl abits) lor if j < k then atoms.(j) else 0
          done;
          key.(i) <- !acc
        done;
        let gbits = (hi - lo) * abits in
        let nchunks = max 1 ((gbits + 15) / 16) in
        let width = (gbits + nchunks - 1) / nchunks in
        let mask = (1 lsl width) - 1 in
        for c = 0 to nchunks - 1 do
          pass ~width (fun i -> (key.(i) lsr (c * width)) land mask)
        done;
        decr g
      done
    done;
    pass ~width:3 (fun i -> Char.code (Bytes.unsafe_get weight i));
    !order
  end

let pp_behavior ~rounds ppf b =
  match b with
  | Crash r -> Format.fprintf ppf "crash@r%d(+%d)" r (rounds - r + 1)
  | Mute (a, b) -> Format.fprintf ppf "mute[%d..%d]" a b
  | Deaf (a, b) -> Format.fprintf ppf "deaf[%d..%d]" a b
  | Isolate (a, b) -> Format.fprintf ppf "isolate[%d..%d]" a b
  | Send_drop (r, dst) -> Format.fprintf ppf "send-drop@r%d->%a" r Pid.pp dst
  | Recv_drop (r, src) -> Format.fprintf ppf "recv-drop@r%d<-%a" r Pid.pp src

let pp_corruption ppf = function
  | Clean -> Format.pp_print_string ppf "clean"
  | Zero -> Format.pp_print_string ppf "zero"
  | Max -> Format.pp_print_string ppf "max"
  | Parked k -> Format.fprintf ppf "parked@%d" k
  | Distinct -> Format.pp_print_string ppf "distinct"

let pp ppf t =
  Format.fprintf ppf "@[<h>n=%d rounds=%d corruption=%a schedule={" t.params.n
    t.params.rounds pp_corruption t.corruption;
  List.iteri
    (fun i (p, b) ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%a:%a" Pid.pp p (pp_behavior ~rounds:t.params.rounds) b)
    t.behaviors;
  Format.fprintf ppf "}@]"
