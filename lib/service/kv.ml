type kind = Get | Put | Cas | Delete

type op = { id : int; kind : kind; key : int; v1 : int; v2 : int }

(* A 62-bit avalanche mix (xxhash-style finalizer over constants that fit
   OCaml's native int), used for the per-entry digest contribution and for
   chaining log digests. Collisions are astronomically unlikely at the
   scales the workloads reach; nothing here is cryptographic. *)
let mix a b =
  let h = ref (a lxor ((b * 0x27D4_EB2F) + 0x165_667B1)) in
  h := !h lxor (!h lsr 33);
  h := !h * 0x27D4_EB2F;
  h := !h lxor (!h lsr 29);
  h := !h * 0x165_667B1;
  h := !h lxor (!h lsr 32);
  !h land max_int

let chain h x = mix (mix 0x5EED h) x

let op_digest o =
  let k = match o.kind with Get -> 0 | Put -> 1 | Cas -> 2 | Delete -> 3 in
  mix (mix (mix o.id k) (mix o.key o.v1)) o.v2

let batch_digest ops = Array.fold_left (fun h o -> chain h (op_digest o)) 1 ops

(* The replica state digest is an order-independent sum (mod 2^62) of one
   mix per live entry, so [apply] maintains it in O(1): subtract the old
   entry's contribution, add the new one's. Absent keys read as 0 but
   contribute nothing — [put k 0] and "absent" are distinct states. *)
let entry_digest key value = mix (mix 0xD1_6E57 key) value

(* The table: open addressing over flat arrays, so a replica's state is
   three unboxed blocks instead of one boxed cell per entry. Slot [i] holds
   [keys.(i) -> vals.(i)] iff [used.[i]] is set; any int is a valid key,
   hence the separate occupancy map. Probing is linear from the key's
   Fibonacci-hashed home slot, and deletion shifts later entries of the
   cluster back instead of leaving tombstones, so the 10% deletes of the
   workloads never lengthen probe sequences. *)
type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable used : Bytes.t;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable shift : int;  (* 63 - log2 capacity: home slot = top bits of the hash *)
  mutable size : int;
  mutable dig : int;
}

let initial_bits = 10

let alloc t bits =
  let cap = 1 lsl bits in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap 0;
  t.used <- Bytes.make cap '\000';
  t.mask <- cap - 1;
  t.shift <- 63 - bits

let create () =
  let t =
    { keys = [||]; vals = [||]; used = Bytes.empty; mask = 0; shift = 0; size = 0; dig = 0 }
  in
  alloc t initial_bits;
  t

let reset t =
  Bytes.fill t.used 0 (Bytes.length t.used) '\000';
  t.size <- 0;
  t.dig <- 0

(* Fibonacci hashing: multiply by ~2^63/φ (the literal wraps to a
   negative int) and keep the top log2-capacity bits, which spreads
   dense, strided and negative keys alike. *)
let home t key = (key * 0x4F1B_BCDC_BFA5_3E0B) lsr t.shift
let occupied t i = Bytes.get t.used i <> '\000'

(* The slot holding [key], or the empty slot ending its probe sequence.
   Top-level rather than a closure over [t] and [key]: a local recursive
   closure is allocated on every lookup. *)
let rec probe t key i =
  if (not (occupied t i)) || t.keys.(i) = key then i else probe t key ((i + 1) land t.mask)

let slot t key = probe t key (home t key)

let grow t =
  let keys = t.keys and vals = t.vals and used = t.used in
  alloc t (64 - t.shift);
  for i = 0 to Array.length keys - 1 do
    if Bytes.get used i <> '\000' then begin
      let j = slot t keys.(i) in
      Bytes.set t.used j '\001';
      t.keys.(j) <- keys.(i);
      t.vals.(j) <- vals.(i)
    end
  done

(* Occupy the empty slot [i] that ended [key]'s probe. The load factor is
   fixed at 1/2: an insert that would fill more than half the table
   doubles it first (which moves the slot). *)
let insert t i key value =
  let i =
    if 2 * (t.size + 1) > t.mask + 1 then begin
      grow t;
      slot t key
    end
    else i
  in
  Bytes.set t.used i '\001';
  t.keys.(i) <- key;
  t.vals.(i) <- value;
  t.size <- t.size + 1

(* Backward-shift deletion: walk the cluster after the hole and move into
   it every entry whose home lies at or before the hole (cyclically), so
   every remaining key stays reachable from its home without tombstones. *)
let rec fill_hole t hole j =
  let j = (j + 1) land t.mask in
  if not (occupied t j) then Bytes.set t.used hole '\000'
  else if (j - home t t.keys.(j)) land t.mask >= (j - hole) land t.mask then begin
    t.keys.(hole) <- t.keys.(j);
    t.vals.(hole) <- t.vals.(j);
    fill_hole t j j
  end
  else fill_hole t hole j

let delete_at t i =
  fill_hole t i i;
  t.size <- t.size - 1

let get t key =
  let i = slot t key in
  if occupied t i then t.vals.(i) else 0

let mem t key = occupied t (slot t key)
let cardinal t = t.size
let digest t = t.dig

(* Store [value] at [key]'s slot [i], leaving the digest alone. *)
let store t i key value = if occupied t i then t.vals.(i) <- value else insert t i key value

(* [store], keeping the incremental digest. *)
let write t i key value =
  if occupied t i then t.dig <- (t.dig - entry_digest key t.vals.(i)) land max_int;
  store t i key value;
  t.dig <- (t.dig + entry_digest key value) land max_int

(* One probe per op: the slot found first is the one updated. *)
let apply t o =
  match o.kind with
  | Get -> ()
  | Put -> write t (slot t o.key) o.key o.v1
  | Cas ->
    let i = slot t o.key in
    let cur = if occupied t i then t.vals.(i) else 0 in
    if cur = o.v1 then write t i o.key o.v2
  | Delete ->
    let i = slot t o.key in
    if occupied t i then begin
      t.dig <- (t.dig - entry_digest o.key t.vals.(i)) land max_int;
      delete_at t i
    end

let apply_batch t ops = Array.iter (apply t) ops

(* A scan of the table contents, ignoring the incremental field — the
   ground truth a corrupted [dig] is audited against. *)
let recompute_digest t =
  let acc = ref 0 in
  for i = 0 to t.mask do
    if occupied t i then acc := (!acc + entry_digest t.keys.(i) t.vals.(i)) land max_int
  done;
  !acc

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
      if occupied t i then delete_at t i
    end
  done;
  if Rng.chance rng 0.3 then t.dig <- Rng.int rng max_int

let pp_op ppf o =
  let k =
    match o.kind with Get -> "get" | Put -> "put" | Cas -> "cas" | Delete -> "del"
  in
  Format.fprintf ppf "#%d %s k%d %d/%d" o.id k o.key o.v1 o.v2
