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

(* Behaviour fields (pids, peers, rounds) are packed [field_bits] to a
   field, so a space whose pids or rounds reach 2^field_bits is refused:
   every case it enumerates packs. *)
let field_bits = 19

let field_mask = (1 lsl field_bits) - 1

let intervals_per_kind rounds = rounds * (rounds + 1) / 2

let behaviors_per_process { n; rounds; intervals; drops; _ } =
  rounds
  + (if intervals then 3 * intervals_per_kind rounds else 0)
  + if drops then 2 * rounds * (n - 1) else 0

exception Overflow

(* Products and sums of non-negative ints, raising [Overflow] past
   [max_int]. *)
let mul a b = if a <> 0 && b > max_int / a then raise Overflow else a * b
let add a b = if a > max_int - b then raise Overflow else a + b

let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := mul !acc (n - k + i) / i
    done;
    !acc
  end

let rec pow base e = if e = 0 then 1 else mul base (pow base (e - 1))

let schedules params =
  let b = behaviors_per_process params in
  let total = ref 0 in
  for k = 0 to params.f do
    total := add !total (mul (binomial params.n k) (pow b k))
  done;
  !total

let corruptions params = [ Clean; Zero; Max; Parked params.rounds; Distinct ]

let validate ({ n; rounds; f; _ } as params) =
  if n < 2 then invalid_arg "Schedule_enum: n < 2";
  if rounds < 1 then invalid_arg "Schedule_enum: rounds < 1";
  if f < 0 || f >= n then invalid_arg "Schedule_enum: f outside 0..n-1";
  if n > 1 lsl field_bits || rounds >= 1 lsl field_bits then
    invalid_arg
      (Printf.sprintf "Schedule_enum: n=%d rounds=%d: pids or rounds reach 2^%d" n rounds
         field_bits);
  match schedules params with
  | s when s <= Sys.max_array_length / List.length (corruptions params) -> ()
  | _ | (exception Overflow) ->
    invalid_arg
      (Printf.sprintf "Schedule_enum: n=%d rounds=%d f=%d spans more cases than an array holds"
         n rounds f)

let count_schedules params =
  validate params;
  schedules params

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
   merges distinct orbits), but only the minimum is shared by the whole
   orbit, and the factorial search is only worth it while the support is
   small (|support| <= 2f, so always while f <= 4). Above the limit one
   orbit may keep several forms. *)
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

(* The corruption class's rank: atom 0 of [prefix_order]'s key. *)
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
   off a few ints instead of its list: -1 when a field falls outside
   [0, 2^field_bits); 0 is never a packed behaviour. *)
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

(* A case's key is one atom sequence: its corruption weight, then each
   round's atoms ascending and zero-padded to [f] slots. Atoms are [abits]
   wide and packed big-endian, [per_word] to a word, into [words] words, so
   numeric order on the words is lexicographic order on the atoms, and a
   round may straddle two words. *)
type key = { abits : int; per_word : int; words : int }

let key_of { n; rounds; f; _ } =
  let rec bits v = if v = 0 then 0 else 1 + bits (v lsr 1) in
  let abits = bits (atom_bound ~n) in
  let per_word = 62 / abits in
  { abits; per_word; words = (1 + (rounds * f) + per_word - 1) / per_word }

(* Sets atom [t] of the key row that starts at word [row] to [a]. *)
let put k keys row t a =
  let w = row + (t / k.per_word) in
  keys.(w) <- keys.(w) lor (a lsl ((k.per_word - 1 - (t mod k.per_word)) * k.abits))

(* Whether the packed behaviour [code] lies inside [params]: its pids
   below [n], its rounds in [1, rounds]. *)
let inside { n; rounds; _ } code =
  let kind = kind_of code and x = x_of code and y = y_of code in
  pid_of code < n && 1 <= x && x <= rounds
  && (kind = 1 || if kind <= 4 then x <= y && y <= rounds else y < n)

(* Writes case [c]'s key into row [i] of the zeroed [keys], from its
   behaviours packed in [codes] and each round's atoms collected in
   [out]; false, writing nothing, when [c] lies outside [params]. *)
let fill params k keys i c (codes, out) =
  let { rounds; f; _ } = params in
  let nb = pack_list codes 0 c.behaviors in
  let rec all_inside j = j = nb || (inside params codes.(j) && all_inside (j + 1)) in
  if
    (c.params != params && c.params <> params)
    || (match c.corruption with Parked r -> r <> rounds | _ -> false)
    || nb < 0 || nb > f || not (all_inside 0)
  then false
  else begin
    let row = i * k.words in
    put k keys row 0 (corruption_weight c.corruption);
    for r = 1 to rounds do
      for s = 0 to round_atoms ~n:params.n codes nb r out - 1 do
        put k keys row (1 + ((r - 1) * f) + s) out.(s)
      done
    done;
    true
  end

(* The stable LSD radix sort of the rows of [keys], [words] apiece:
   16-bit passes from the last word's low bits to the first word's high
   ones, each position carrying its case's current word in [cur]. A pass
   over bits that no key sets is skipped. Returns the order and [cur],
   which then holds each position's first word. *)
let sort_keys ~words keys len =
  let order = ref (Array.init len Fun.id) and cur = ref (Array.make len 0) in
  let spare_order = ref (Array.make len 0) and spare_cur = ref (Array.make len 0) in
  let count = Array.make (1 lsl 16) 0 in
  for w = words - 1 downto 0 do
    let o = !order and c = !cur in
    let any = ref 0 in
    for p = 0 to len - 1 do
      let v = keys.((o.(p) * words) + w) in
      c.(p) <- v;
      any := !any lor v
    done;
    for pass = 0 to 3 do
      let shift = 16 * pass in
      if (!any lsr shift) land 0xffff <> 0 then begin
        let o = !order and c = !cur and so = !spare_order and sc = !spare_cur in
        Array.fill count 0 (1 lsl 16) 0;
        for p = 0 to len - 1 do
          let d = (c.(p) lsr shift) land 0xffff in
          count.(d) <- count.(d) + 1
        done;
        let sum = ref 0 in
        for d = 0 to 0xffff do
          let k = count.(d) in
          count.(d) <- !sum;
          sum := !sum + k
        done;
        for p = 0 to len - 1 do
          let v = c.(p) in
          let d = (v lsr shift) land 0xffff in
          let q = count.(d) in
          count.(d) <- q + 1;
          so.(q) <- o.(p);
          sc.(q) <- v
        done;
        spare_order := o;
        spare_cur := c;
        order := so;
        cur := sc
      end
    done
  done;
  (!order, !cur)

(* The first of words [w ..] where the rows at [a] and [b] differ, or
   [words] when none does. *)
let rec differ keys ~words a b w =
  if w = words || keys.(a + w) <> keys.(b + w) then w else differ keys ~words a b (w + 1)

(* The index of the highest set bit of [x > 0]. *)
let msb x =
  let rec go x b s =
    if s = 0 then b else if x lsr s <> 0 then go (x lsr s) (b + s) (s / 2) else go x b (s / 2)
  in
  go x 0 32

(* Starting a domain costs about what it saves on tens of thousands of
   cases (0.7 ms on a shared 2-vCPU VM, 3 ms on a CI runner, against
   ~0.1 µs of decoding per case), so shorter arrays are keyed on the
   calling domain alone. *)
let parallel_from = 1 lsl 16

let prefix_order ?(domains = 1) cases =
  let len = Array.length cases in
  if len <= 1 then { order = Array.init len Fun.id; depth = Array.make len (-1) }
  else begin
    let params = cases.(0).params in
    let { rounds; f; _ } = params in
    let k = key_of params in
    let words = k.words in
    let keys = Array.make (len * words) 0 in
    let domains = if len < parallel_from then 1 else Ftss_profile.Pool.domains domains in
    (* The least index of a case outside [params], per domain. *)
    let outside = Array.make domains len in
    Ftss_profile.Pool.run ~lane:"prefix_order" ~domains len (fun ~domain ~first ~limit ->
        let buffers = (Array.make (f + 1) 0, Array.make (f + 1) 0) in
        for i = first to limit - 1 do
          if not (fill params k keys i cases.(i) buffers) then
            outside.(domain) <- Int.min outside.(domain) i
        done);
    let bad = Array.fold_left Int.min len outside in
    if bad < len then
      invalid_arg
        (Printf.sprintf "Schedule_enum.prefix_order: case %d lies outside case 0's space" bad);
    let order, cur = sort_keys ~words keys len in
    (* A pair's depth is read off its first differing word: the highest
       differing atom there is the first in the sequence. *)
    let depth_at w x =
      let atom = (w * k.per_word) + k.per_word - 1 - (msb x / k.abits) in
      if atom = 0 then -1 else (atom - 1) / f
    in
    let depth = Array.make len (-1) in
    for p = 1 to len - 1 do
      let x = cur.(p - 1) lxor cur.(p) in
      depth.(p) <-
        (if x <> 0 then depth_at 0 x
         else
           let a = order.(p - 1) * words and b = order.(p) * words in
           let w = differ keys ~words a b 1 in
           if w = words then rounds else depth_at w (keys.(a + w) lxor keys.(b + w)))
    done;
    { order; depth }
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
