type kind = Get | Put | Cas | Delete

type op = { id : int; kind : kind; key : int; v1 : int; v2 : int }

(* A 62-bit avalanche mix (xxhash-style finalizer over constants that fit
   OCaml's native int), used for the per-entry digest contribution and for
   chaining log digests. Collisions are astronomically unlikely at the
   scales the workloads reach; nothing here is cryptographic. Inlined, so
   a digest scan and the commit path's chains pay no call per mix. *)
let[@inline] mix a b =
  let h = a lxor ((b * 0x27D4_EB2F) + 0x165_667B1) in
  let h = h lxor (h lsr 33) in
  let h = h * 0x27D4_EB2F in
  let h = h lxor (h lsr 29) in
  let h = h * 0x165_667B1 in
  let h = h lxor (h lsr 32) in
  h land max_int

let chain h x = mix (mix 0x5EED h) x

let op_digest o =
  let k = match o.kind with Get -> 0 | Put -> 1 | Cas -> 2 | Delete -> 3 in
  mix (mix (mix o.id k) (mix o.key o.v1)) o.v2

let batch_digest ops = Array.fold_left (fun h o -> chain h (op_digest o)) 1 ops

(* The replica state digest is an order-independent sum (mod 2^62) of one
   mix per live entry, so [apply] maintains it in O(1): subtract the old
   entry's contribution, add the new one's. Absent keys read as 0 but
   contribute nothing — [put k 0] and "absent" are distinct states. *)
let[@inline] key_digest key = mix 0xD1_6E57 key
let[@inline] entry_digest key value = mix (key_digest key) value

(* The table: a dense entry store plus an open-addressing index, so a
   replica's state is two unboxed blocks instead of one boxed cell per
   entry, and a scan touches live entries only. Entry [d < size] keeps
   its key at [ent.(2d)] and its value at [ent.(2d+1)]. Index slot [i]
   holds 0 when empty, else 1 + the position of the entry it names. The
   index probes linearly from the key's Fibonacci-hashed home slot, and
   deletion shifts later slots of the cluster back instead of leaving
   tombstones, so the 10% deletes of the workloads never lengthen probe
   sequences; the last entry then moves into the freed position. *)
type t = {
  mutable ent : int array;  (* capacity ints: room for capacity/2 entries *)
  mutable idx : int array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable shift : int;  (* 63 - log2 capacity: home slot = top bits of the hash *)
  mutable size : int;
  mutable dig : int;
}

let initial_bits = 10

let alloc t bits =
  let cap = 1 lsl bits in
  t.ent <- Array.make cap 0;
  t.idx <- Array.make cap 0;
  t.mask <- cap - 1;
  t.shift <- 63 - bits

(* Sized for [keys] live entries at the load factor of 1/2: the capacity
   the doublings from [initial_bits] would reach on the [keys]-th
   insert, and no smaller than the default. *)
let create ?(keys = 0) () =
  let t = { ent = [||]; idx = [||]; mask = 0; shift = 0; size = 0; dig = 0 } in
  let bits = ref initial_bits in
  while 1 lsl !bits < 2 * keys do
    incr bits
  done;
  alloc t !bits;
  t

let reset t =
  Array.fill t.idx 0 (Array.length t.idx) 0;
  t.size <- 0;
  t.dig <- 0

(* Fibonacci hashing: multiply by ~2^63/φ (the literal wraps to a
   negative int) and keep the top log2-capacity bits, which spreads
   dense, strided and negative keys alike. *)
let home t key = (key * 0x4F1B_BCDC_BFA5_3E0B) lsr t.shift

(* The key and value of the entry an occupied index slot names. *)
let[@inline] key_of t e = t.ent.((2 * e) - 2)
let[@inline] value_of t e = t.ent.((2 * e) - 1)

(* The slot naming [key], or the empty slot ending its probe sequence.
   Top-level rather than a closure over [t] and [key]: a local recursive
   closure is allocated on every lookup. *)
let rec probe t key i =
  let e = t.idx.(i) in
  if e = 0 || key_of t e = key then i else probe t key ((i + 1) land t.mask)

let slot t key = probe t key (home t key)

(* Doubling keeps the entries where they are and re-indexes them. *)
let grow t =
  let ent = t.ent in
  alloc t (64 - t.shift);
  Array.blit ent 0 t.ent 0 (2 * t.size);
  for d = 0 to t.size - 1 do
    t.idx.(slot t ent.(2 * d)) <- d + 1
  done

(* Append [key -> value] and point the empty slot [i] that ended [key]'s
   probe at it. The load factor is fixed at 1/2: an insert that would
   fill more than half the index doubles it first (which moves the
   slot). *)
let insert t i key value =
  let i =
    if 2 * (t.size + 1) > t.mask + 1 then begin
      grow t;
      slot t key
    end
    else i
  in
  let d = t.size in
  t.ent.(2 * d) <- key;
  t.ent.((2 * d) + 1) <- value;
  t.idx.(i) <- d + 1;
  t.size <- d + 1

(* Backward-shift deletion: walk the cluster after the hole and move into
   it every slot whose key's home lies at or before the hole (cyclically),
   so every remaining key stays reachable from its home without
   tombstones. *)
let rec fill_hole t hole j =
  let j = (j + 1) land t.mask in
  let e = t.idx.(j) in
  if e = 0 then t.idx.(hole) <- 0
  else if (j - home t (key_of t e)) land t.mask >= (j - hole) land t.mask then begin
    t.idx.(hole) <- e;
    fill_hole t j j
  end
  else fill_hole t hole j

(* Remove the entry slot [i] names: close the index hole, then move the
   last entry into the freed position and repoint the slot naming it. *)
let delete_at t i =
  let d = t.idx.(i) - 1 and last = t.size - 1 in
  fill_hole t i i;
  if d <> last then begin
    let key = t.ent.(2 * last) in
    t.idx.(slot t key) <- d + 1;
    t.ent.(2 * d) <- key;
    t.ent.((2 * d) + 1) <- t.ent.((2 * last) + 1)
  end;
  t.size <- last

let digest t = t.dig

(* Store [value] at [key]'s slot [i], leaving the digest alone. *)
let store t i key value =
  let e = t.idx.(i) in
  if e <> 0 then t.ent.((2 * e) - 1) <- value else insert t i key value

(* [store], keeping the incremental digest. The removed and the added
   entry share their key, so its half of [entry_digest] is mixed once. *)
let write t i key value =
  let e = t.idx.(i) and kd = key_digest key in
  if e <> 0 then t.dig <- (t.dig - mix kd (value_of t e)) land max_int;
  store t i key value;
  t.dig <- (t.dig + mix kd value) land max_int

(* One probe per op: the slot found first is the one updated. *)
let apply t o =
  match o.kind with
  | Get -> ()
  | Put -> write t (slot t o.key) o.key o.v1
  | Cas ->
    let i = slot t o.key in
    let e = t.idx.(i) in
    let cur = if e = 0 then 0 else value_of t e in
    if cur = o.v1 then write t i o.key o.v2
  | Delete ->
    let i = slot t o.key in
    let e = t.idx.(i) in
    if e <> 0 then begin
      t.dig <- (t.dig - entry_digest o.key (value_of t e)) land max_int;
      delete_at t i
    end

(* A loop rather than [Array.iter (apply t)], whose partial application
   allocates a closure per batch. *)
let apply_range t ops ~lo ~hi =
  for i = lo to hi - 1 do
    apply t ops.(i)
  done

let apply_batch t ops = apply_range t ops ~lo:0 ~hi:(Array.length ops)

(* A scan of the live entries, ignoring the incremental field — the
   ground truth a corrupted [dig] is audited against. The sum wraps at
   2^63 and is reduced once at the end: the same value mod 2^62. *)
let recompute_digest t =
  let ent = t.ent and acc = ref 0 in
  for d = 0 to t.size - 1 do
    acc := !acc + entry_digest ent.(2 * d) ent.((2 * d) + 1)
  done;
  !acc land max_int

(* Raw table scrambling for fault injection: entries replaced or removed
   behind the incremental digest's back, sometimes the digest field
   itself — exactly the redundancy-violating state the audit exists to
   catch. The value is drawn before the key: the order the storm pins
   were recorded under. *)
let corrupt rng ~keys t =
  let open Ftss_util in
  let hits = 1 + Rng.int rng 8 in
  for _ = 1 to hits do
    if Rng.bool rng then begin
      let value = Rng.int rng 1_000_000 in
      let key = Rng.int rng (max 1 keys) in
      store t (slot t key) key value
    end
    else begin
      let i = slot t (Rng.int rng (max 1 keys)) in
      if t.idx.(i) <> 0 then delete_at t i
    end
  done;
  if Rng.chance rng 0.3 then t.dig <- Rng.int rng max_int
