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

(* The last round a behaviour's omissions name. *)
let omits_until = function
  | Crash _ -> 0
  | Mute (_, last) | Deaf (_, last) | Isolate (_, last) -> last
  | Send_drop (round, _) | Recv_drop (round, _) -> round

(* The events are handed to the rows one by one, never listed. *)
let to_faults t =
  let rounds = List.fold_left (fun acc (_, b) -> Int.max acc (omits_until b)) 0 t.behaviors in
  Faults.build ~n:t.params.n ~rounds (fun add ->
      List.iter
        (fun (pid, behavior) ->
          match behavior with
          | Crash round -> add (Faults.Crash { pid; round })
          | Mute (first, last) -> add (Faults.Mute { pid; first; last })
          | Deaf (first, last) -> add (Faults.Deaf { pid; first; last })
          | Isolate (first, last) -> add (Faults.Isolate { pid; first; last })
          | Send_drop (round, dst) ->
            add (Faults.Blame { pid });
            add (Faults.Drop { src = pid; dst; round })
          | Recv_drop (round, src) ->
            add (Faults.Blame { pid });
            add (Faults.Drop { src; dst = pid; round }))
        t.behaviors)

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
   round/peer fields of [field_bits] each — so a case's digits are read
   off a few ints instead of its list. *)
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
let covered codes slots r ~src ~dst =
  let hit = ref false in
  for j = 0 to slots - 1 do
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
   [codes.(0 .. slots - 1)] into [out], ascending, and returns how many
   there are. *)
let round_atoms ~n codes slots r out =
  let k = ref 0 in
  for j = 0 to slots - 1 do
    let c = codes.(j) in
    if acts c r then begin
      let kind = kind_of c and pid = pid_of c in
      let a =
        if kind <= 4 then atom_code ~n (kind - 1) pid 0
        else
          let src, dst = if kind = 5 then (pid, y_of c) else (y_of c, pid) in
          if covered codes slots r ~src ~dst then 0 else atom_code ~n 4 src dst
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

(* Packs the behaviours [bs] into [codes] from slot [j] on: the number
   of behaviours, or -1 when one does not pack. Behaviours past the end of
   [codes] are counted, not packed. *)
let rec pack_list codes j = function
  | [] -> j
  | b :: l as bs ->
    if j = Array.length codes then j + List.length bs
    else
      let p = pack b in
      if p < 0 then -1
      else begin
        codes.(j) <- p;
        pack_list codes (j + 1) l
      end

(* Round 0's digit: the params and the corruption class. *)
let same_start a b =
  (a.params == b.params || a.params = b.params) && a.corruption = b.corruption

let shared_prefix a b =
  if not (same_start a b) then -1
  else begin
    let sa = List.length a.behaviors and sb = List.length b.behaviors in
    let pa = Array.make sa 0 and pb = Array.make sb 0 in
    if pack_list pa 0 a.behaviors < 0 || pack_list pb 0 b.behaviors < 0 then 0
    else begin
      let n = a.params.n in
      let oa = Array.make sa 0 and ob = Array.make sb 0 in
      let rec depth r =
        if r > a.params.rounds then r - 1
        else begin
          let k = round_atoms ~n pa sa r oa in
          if k <> round_atoms ~n pb sb r ob then r - 1
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

type walk = { order : int array; depth : int array }

(* Where a case's digits go once decoded. Round [r]'s digit is its atoms
   (at most [slots]) packed [abits] apiece into [ngroups] group keys of
   at most [per_group] atoms, so that numeric order on a group key is
   lexicographic order on its atoms; for enumerated cases of up to ~10^3
   processes and f <= 2 a round is one group. The group keys of rounds
   [1 .. rounds], in that order, are the case's levels: [kbits] bits
   each, [per_word] to a word, [words] words per case. *)
type layout = {
  n : int;
  rounds : int;
  slots : int;
  abits : int;
  per_group : int;
  ngroups : int;
  kbits : int;
  per_word : int;
  words : int;
}

let layout ~n ~rounds ~slots =
  let rec bits v = if v = 0 then 0 else 1 + bits (v lsr 1) in
  let abits = bits (atom_bound ~n) in
  let per_group = max 1 (62 / abits) in
  let ngroups = (slots + per_group - 1) / per_group in
  let kbits = max 1 (min slots per_group * abits) in
  let per_word = 62 / kbits in
  {
    n;
    rounds;
    slots;
    abits;
    per_group;
    ngroups;
    kbits;
    per_word;
    words = ((rounds * ngroups) + per_word - 1) / per_word;
  }

(* Writes case [i]'s levels under [l] into [digits], from its [nb]
   behaviours packed in [codes]. Behaviour [j] puts the atom [atom.(j)]
   in the digit of every round from [first.(j)] to [last.(j)], as
   {!round_atoms} would: a point drop acts in its one round, where another
   behaviour may already account for it (its atom is then 0 and it puts
   none). [out] collects a round's atoms. *)
let write_levels l digits i codes nb (atom, first, last, out) =
  let n = l.n in
  for j = 0 to nb - 1 do
    let c = codes.(j) in
    let kind = kind_of c and pid = pid_of c and x = x_of c in
    first.(j) <- x;
    if kind <= 4 then begin
      atom.(j) <- atom_code ~n (kind - 1) pid 0;
      last.(j) <- (if kind = 1 then l.rounds else y_of c)
    end
    else begin
      let src = if kind = 5 then pid else y_of c and dst = if kind = 5 then y_of c else pid in
      atom.(j) <- (if covered codes nb x ~src ~dst then 0 else atom_code ~n 4 src dst);
      last.(j) <- x
    end
  done;
  let abits = l.abits and kbits = l.kbits and per_group = l.per_group in
  let w = ref (i * l.words) and word = ref 0 and filled = ref 0 in
  for r = 1 to l.rounds do
    let k = ref 0 in
    for j = 0 to nb - 1 do
      let a = atom.(j) in
      if a <> 0 && first.(j) <= r && r <= last.(j) then begin
        (* insertion into the sorted prefix *)
        let q = ref !k in
        while !q > 0 && out.(!q - 1) > a do
          out.(!q) <- out.(!q - 1);
          decr q
        done;
        out.(!q) <- a;
        incr k
      end
    done;
    for g = 0 to l.ngroups - 1 do
      let lo = g * per_group in
      let key = ref 0 in
      for j = lo to Int.min l.slots (lo + per_group) - 1 do
        key := (!key lsl abits) lor if j < !k then out.(j) else 0
      done;
      word := !word lor (!key lsl (!filled * kbits));
      incr filled;
      if !filled = l.per_word then begin
        digits.(!w) <- !word;
        incr w;
        word := 0;
        filled := 0
      end
    done
  done;
  if !filled > 0 then digits.(!w) <- !word

(* The stable MSD radix sort of positions [0, len) by their levels
   ([digits], under [l]) after their corruption weights ([weight]),
   filling [order] and, for each position's pair, [depth] (rounds shared,
   or -1 across corruption classes). Level 0 is the weight, level [v >= 1]
   the case's [v]-th group key. Each level sorts, in place, every run of
   positions that agrees on all earlier levels, so the order is that of a
   sort by the whole key with ties kept in index order. Where a run splits
   on a key of round [r] its neighbours share rounds [1 .. r-1]; a run that
   never splits shares every round. *)
let sort_levels ~domains l weight digits order depth =
  let len = Array.length order in
  let levels = 1 + (l.rounds * l.ngroups) in
  Array.fill depth 1 (len - 1) l.rounds;
  (* [key.(p)] is the level's key of the case at position [p]; a run's
     keys move with its cases, through the spare arrays. *)
  let key = Array.make len 0 in
  let spare_order = Array.make len 0 and spare_key = Array.make len 0 in
  let set_keys lo hi level =
    if level = 0 then
      for p = lo to hi - 1 do
        key.(p) <- Char.code (Bytes.unsafe_get weight order.(p))
      done
    else begin
      let word = (level - 1) / l.per_word and shift = (level - 1) mod l.per_word * l.kbits in
      let mask = (1 lsl l.kbits) - 1 in
      for p = lo to hi - 1 do
        key.(p) <- (digits.((order.(p) * l.words) + word) lsr shift) land mask
      done
    end
  in
  (* One stable counting pass over positions [lo, hi) by the digit
     [(key - least) lsr shift] of [width] bits, in the domain's [count]
     buckets. *)
  let pass count lo hi ~least ~shift ~width =
    let mask = (1 lsl width) - 1 in
    Array.fill count 0 (mask + 2) 0;
    for p = lo to hi - 1 do
      let d = (((key.(p) - least) lsr shift) land mask) + 1 in
      count.(d) <- count.(d) + 1
    done;
    for d = 1 to mask do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    for p = lo to hi - 1 do
      let d = ((key.(p) - least) lsr shift) land mask in
      let q = lo + count.(d) in
      count.(d) <- count.(d) + 1;
      spare_order.(q) <- order.(p);
      spare_key.(q) <- key.(p)
    done;
    Array.blit spare_order lo order lo (hi - lo);
    Array.blit spare_key lo key lo (hi - lo)
  in
  (* Stable sort of positions [lo, hi) by key: insertion for short runs,
     else counting passes, one when the keys span few values per case
     and bytes from the lowest up otherwise. *)
  let sort_run count lo hi =
    if hi - lo <= 32 then
      for p = lo + 1 to hi - 1 do
        let k = key.(p) and i = order.(p) in
        let q = ref p in
        while !q > lo && key.(!q - 1) > k do
          key.(!q) <- key.(!q - 1);
          order.(!q) <- order.(!q - 1);
          decr q
        done;
        key.(!q) <- k;
        order.(!q) <- i
      done
    else begin
      let least = ref max_int and most = ref 0 in
      for p = lo to hi - 1 do
        let k = key.(p) in
        if k < !least then least := k;
        if k > !most then most := k
      done;
      let least = !least and span = !most - !least in
      let rec bits v = if v = 0 then 0 else 1 + bits (v lsr 1) in
      let b = bits span in
      if span <= 8 * (hi - lo) && b <= 16 then pass count lo hi ~least ~shift:0 ~width:b
      else
        for byte = 0 to (b - 1) / 8 do
          pass count lo hi ~least ~shift:(8 * byte) ~width:8
        done
    end
  in
  (* Splits the run [lo, hi) from [level] on, deferring to [runs] every
     run that reaches level [cut]. *)
  let runs = ref [] in
  let rec split count ~cut lo hi level =
    if hi - lo > 1 && level < levels then
      if level = cut then runs := (lo, hi) :: !runs
      else begin
        set_keys lo hi level;
        sort_run count lo hi;
        let r = if level = 0 then 0 else ((level - 1) / l.ngroups) + 1 in
        (* Each sub-run is found whole before it is split further, which
           rewrites only its own keys. *)
        let start = ref lo in
        for p = lo + 1 to hi do
          if p = hi || key.(p) <> key.(p - 1) then begin
            if p < hi then depth.(p) <- r - 1;
            split count ~cut !start p (level + 1);
            start := p
          end
        done
      end
  in
  (* The corruption classes and the first level split the whole array
     here; the runs below them, disjoint ranges of every array, split in
     parallel. *)
  let counts =
    (* A counting pass over a run of s positions takes at most
       min(2^16, 16 s) + 1 buckets, and a byte pass 257. *)
    let size = Int.min ((1 lsl 16) + 1) (Int.max 257 ((16 * len) + 1)) in
    Array.init domains (fun _ -> Array.make size 0)
  in
  split counts.(0) ~cut:2 0 len 0;
  let deferred = Array.of_list !runs in
  Ftss_profile.Pool.run ~lane:"prefix_order" ~domains (Array.length deferred)
    (fun ~domain ~first ~limit ->
      for j = first to limit - 1 do
        let lo, hi = deferred.(j) in
        split counts.(domain) ~cut:(-1) lo hi 2
      done)

(* What a read of every case found: the largest system, horizon and
   behaviour count, whether every behaviour packed, and whether every
   case shares case 0's params and parks, if at all, at its horizon (then
   equal corruption weights mean equal round-0 digits). *)
type found = {
  mutable most_n : int;
  mutable most_rounds : int;
  mutable most_slots : int;
  mutable packs : bool;
  mutable alike : bool;
}

(* One read of every case, on [domains] domains: its corruption weight
   into [weight.[i]] and, when it fits [l], its levels into the returned
   digits, at [i * l.words]. *)
let decode ~domains cases weight l =
  let len = Array.length cases in
  let p0 = cases.(0).params in
  let digits = Array.make (len * l.words) 0 in
  let fresh () = { most_n = 0; most_rounds = 0; most_slots = 0; packs = true; alike = true } in
  let per_domain = Array.init domains (fun _ -> fresh ()) in
  Ftss_profile.Pool.run ~lane:"prefix_order" ~domains len (fun ~domain ~first ~limit ->
      let codes = Array.make l.slots 0 and buffer () = Array.make l.slots 0 in
      let spans = (buffer (), buffer (), buffer (), buffer ()) in
      (* Counted here, and into the domain's record once per chunk. *)
      let n = ref 0 and rounds = ref 0 and slots = ref 0 in
      let packs = ref true and alike = ref true in
      for i = first to limit - 1 do
        let c = cases.(i) in
        (match c.corruption with
        | _ when c.params != p0 -> alike := false
        | Parked k when k <> p0.rounds -> alike := false
        | _ -> ());
        Bytes.unsafe_set weight i (Char.unsafe_chr (corruption_weight c.corruption));
        n := Int.max !n c.params.n;
        rounds := Int.max !rounds c.params.rounds;
        let nb = pack_list codes 0 c.behaviors in
        if nb < 0 then packs := false
        else begin
          slots := Int.max !slots nb;
          if nb <= l.slots && c.params.n <= l.n && c.params.rounds <= l.rounds then
            write_levels l digits i codes nb spans
        end
      done;
      let f = per_domain.(domain) in
      f.most_n <- Int.max f.most_n !n;
      f.most_rounds <- Int.max f.most_rounds !rounds;
      f.most_slots <- Int.max f.most_slots !slots;
      f.packs <- f.packs && !packs;
      f.alike <- f.alike && !alike);
  let all = fresh () in
  Array.iter
    (fun f ->
      all.most_n <- Int.max all.most_n f.most_n;
      all.most_rounds <- Int.max all.most_rounds f.most_rounds;
      all.most_slots <- Int.max all.most_slots f.most_slots;
      all.packs <- all.packs && f.packs;
      all.alike <- all.alike && f.alike)
    per_domain;
  (digits, all)

(* Starting a domain costs about what it saves on tens of thousands of
   cases (0.7 ms on a shared 2-vCPU VM, 3 ms on a CI runner, against
   ~0.1 µs of decoding and sorting per case), so shorter arrays are
   walked on the calling domain alone. *)
let parallel_from = 1 lsl 16

let prefix_order ?(domains = 1) cases =
  let len = Array.length cases in
  let order = Array.init len Fun.id in
  let depth = Array.make len (-1) in
  if len > 1 then begin
    let domains = if len < parallel_from then 1 else Ftss_profile.Pool.domains domains in
    let weight = Bytes.create len in
    (* The layout is read off case 0 first, and widened for all when a
       case has more behaviours, processes or rounds. *)
    let p0 = cases.(0).params in
    let l = layout ~n:p0.n ~rounds:p0.rounds ~slots:p0.f in
    let digits, found = decode ~domains cases weight l in
    let l, digits, found =
      if (not found.packs)
         || (found.most_n <= l.n && found.most_rounds <= l.rounds && found.most_slots <= l.slots)
      then (l, digits, found)
      else
        let l = layout ~n:found.most_n ~rounds:found.most_rounds ~slots:found.most_slots in
        let digits, found = decode ~domains cases weight l in
        (l, digits, found)
    in
    if not found.packs then
      for p = 1 to len - 1 do
        depth.(p) <- shared_prefix cases.(p - 1) cases.(p)
      done
    else begin
      sort_levels ~domains l weight digits order depth;
      (* The weights group corruption classes, not the params or a parked
         round, and a case simulates no round past its own horizon. *)
      if not found.alike then
        for p = 1 to len - 1 do
          if depth.(p) >= 0 then begin
            let a = cases.(order.(p - 1)) and b = cases.(order.(p)) in
            depth.(p) <- (if same_start a b then Int.min depth.(p) b.params.rounds else -1)
          end
        done
    end
  end;
  { order; depth }

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
