(* A width-polymorphic immutable bitset over pids.

   Two representations behind one abstract type, discriminated at runtime
   the way Zarith discriminates small integers from big ones:

   - an {e immediate int}: bit p set <=> pid p in the set, for any set
     whose elements all fit in 0..61. This is the one-word fast path —
     [union]/[inter]/[diff]/[mem]/[subset] are a tag test plus a single
     integer instruction, exactly the representation the whole repo ran
     on when the universe was capped at 62 processes;
   - a {e boxed int array}: word w holds bits for pids
     [w*62 .. w*62+61] in its low 62 bits, for sets reaching beyond 61.

   Canonical form: a set whose elements all fit in one word is {e always}
   the immediate int (wide arrays never have a zero top word and are at
   least two words long). Uniqueness of representation is what keeps the
   polymorphic operations the rest of the repository leans on — structural
   equality, [Stdlib.compare], [Hashtbl.hash], [Marshal] — working
   unchanged: a small set is the very same immediate word it was before
   this refactor, so every committed trace fingerprint and golden digest
   for n <= 61 is preserved bit-for-bit.

   The [Obj] casts are confined to this module: values are only ever a
   plain int or a plain int array, both of which the GC, hashing,
   comparison and marshalling all treat exactly as their type dictates. *)

type elt = Pid.t
type t = Obj.t

let word_bits = 62
let max_small = 61

(* A sanity bound on pids, not a representation limit: constructors
   reject negative pids and absurd magnitudes (a million processes needs
   ~16k words per set; anything beyond is a bug, not a workload). *)
let max_pid = 1_048_575

let[@inline] is_small (s : t) = Obj.is_int s
let[@inline] small (s : t) : int = Obj.obj s
let[@inline] of_int (w : int) : t = Obj.repr (w : int)
let[@inline] wide (s : t) : int array = Obj.obj s

let check p =
  if p < 0 || p > max_pid then
    invalid_arg (Printf.sprintf "Pidset: pid %d outside 0..%d" p max_pid)

(* Canonicalize a freshly built word array (taking ownership): trim zero
   top words; collapse to the immediate representation when one word is
   left. *)
let norm (ws : int array) : t =
  let top = ref (Array.length ws - 1) in
  while !top > 0 && ws.(!top) = 0 do
    decr top
  done;
  if !top = 0 then of_int ws.(0)
  else if !top = Array.length ws - 1 then Obj.repr ws
  else Obj.repr (Array.sub ws 0 (!top + 1))

let[@inline] nwords s = if is_small s then 1 else Array.length (wide s)

(* The i-th word of the virtual infinite word vector (0 beyond the
   representation). *)
let word s i =
  if is_small s then if i = 0 then small s else 0
  else
    let a = wide s in
    if i < Array.length a then a.(i) else 0

let empty = of_int 0
let is_empty s = is_small s && small s = 0

let mem p s =
  if is_small s then 0 <= p && p <= max_small && (small s lsr p) land 1 = 1
  else
    0 <= p
    &&
    let a = wide s in
    let w = p / word_bits in
    w < Array.length a && (a.(w) lsr (p mod word_bits)) land 1 = 1

let add p s =
  check p;
  if is_small s && p <= max_small then of_int (small s lor (1 lsl p))
  else begin
    let len = max (nwords s) ((p / word_bits) + 1) in
    let ws = Array.init len (word s) in
    let w = p / word_bits in
    ws.(w) <- ws.(w) lor (1 lsl (p mod word_bits));
    norm ws
  end

let singleton p =
  check p;
  if p <= max_small then of_int (1 lsl p) else add p empty

let remove p s =
  if p < 0 then s
  else if is_small s then
    if p > max_small then s else of_int (small s land lnot (1 lsl p))
  else begin
    let a = wide s in
    let w = p / word_bits in
    if w >= Array.length a || (a.(w) lsr (p mod word_bits)) land 1 = 0 then s
    else begin
      let ws = Array.copy a in
      ws.(w) <- ws.(w) land lnot (1 lsl (p mod word_bits));
      norm ws
    end
  end

let union a b =
  if is_small a && is_small b then of_int (small a lor small b)
  else begin
    let len = max (nwords a) (nwords b) in
    norm (Array.init len (fun i -> word a i lor word b i))
  end

let inter a b =
  (* Intersecting with a one-word set always yields a one-word set. *)
  if is_small a || is_small b then of_int (word a 0 land word b 0)
  else begin
    let len = min (nwords a) (nwords b) in
    norm (Array.init len (fun i -> word a i land word b i))
  end

let diff a b =
  if is_small a then of_int (small a land lnot (word b 0))
  else norm (Array.init (nwords a) (fun i -> word a i land lnot (word b i)))

(* Kernighan popcount of one word: one iteration per set bit. *)
let count_word w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal s =
  if is_small s then count_word (small s)
  else Array.fold_left (fun acc w -> acc + count_word w) 0 (wide s)

let equal a b =
  if is_small a then is_small b && small a = small b
  else
    (not (is_small b))
    &&
    let wa = wide a and wb = wide b in
    Array.length wa = Array.length wb
    &&
    let rec go i = i < 0 || (wa.(i) = wb.(i) && go (i - 1)) in
    go (Array.length wa - 1)

let subset a b =
  if is_small a then small a land lnot (word b 0) = 0
  else begin
    let la = nwords a in
    let rec go i = i >= la || (word a i land lnot (word b i) = 0 && go (i + 1)) in
    go 0
  end

(* Index of the lowest set bit of [w], [w] <> 0. *)
let lowest_bit w =
  let rec go w i = if w land 1 = 1 then i else go (w lsr 1) (i + 1) in
  go w 0

let iter_word f base w =
  let rec go w =
    if w <> 0 then begin
      f (base + lowest_bit w);
      go (w land (w - 1))
    end
  in
  go w

let iter f s =
  if is_small s then iter_word f 0 (small s)
  else Array.iteri (fun i w -> iter_word f (i * word_bits) w) (wide s)

let fold_word f base w acc =
  let rec go w acc =
    if w = 0 then acc else go (w land (w - 1)) (f (base + lowest_bit w) acc)
  in
  go w acc

let fold f s init =
  if is_small s then fold_word f 0 (small s) init
  else begin
    let acc = ref init in
    Array.iteri (fun i w -> acc := fold_word f (i * word_bits) w !acc) (wide s);
    !acc
  end

let for_all_word f base w =
  let rec go w = w = 0 || (f (base + lowest_bit w) && go (w land (w - 1))) in
  go w

let for_all f s =
  if is_small s then for_all_word f 0 (small s)
  else begin
    let a = wide s in
    let rec go i = i >= Array.length a || (for_all_word f (i * word_bits) a.(i) && go (i + 1)) in
    go 0
  end

let elements s = List.rev (fold (fun p acc -> p :: acc) s [])
let to_list = elements
let of_list ps = List.fold_left (fun acc p -> add p acc) empty ps

let min_elt_opt s =
  if is_small s then if small s = 0 then None else Some (lowest_bit (small s))
  else begin
    (* Canonical wide sets are non-empty, but scan defensively. *)
    let a = wide s in
    let rec go i =
      if i >= Array.length a then None
      else if a.(i) <> 0 then Some ((i * word_bits) + lowest_bit a.(i))
      else go (i + 1)
    in
    go 0
  end

let highest_bit w =
  let rec go w i best = if w = 0 then best else go (w lsr 1) (i + 1) (if w land 1 = 1 then i else best) in
  go w 0 0

let max_elt_opt s =
  if is_small s then if small s = 0 then None else Some (highest_bit (small s))
  else begin
    let a = wide s in
    let rec go i =
      if i < 0 then None
      else if a.(i) <> 0 then Some ((i * word_bits) + highest_bit a.(i))
      else go (i - 1)
    in
    go (Array.length a - 1)
  end

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Pid.pp)
    (elements s)

let check_universe fn n =
  if n < 0 || n > max_pid + 1 then
    invalid_arg (Printf.sprintf "Pidset.%s: n %d outside 0..%d" fn n (max_pid + 1))

let of_pred n pred =
  check_universe "of_pred" n;
  if n <= word_bits then begin
    let rec go p acc = if p < 0 then acc else go (p - 1) (if pred p then acc lor (1 lsl p) else acc) in
    of_int (go (n - 1) 0)
  end
  else begin
    let ws = Array.make ((n + word_bits - 1) / word_bits) 0 in
    for p = 0 to n - 1 do
      if pred p then begin
        let w = p / word_bits in
        ws.(w) <- ws.(w) lor (1 lsl (p mod word_bits))
      end
    done;
    norm ws
  end

(* All 62 low bits: [1 lsl 62] wraps to the sign bit of OCaml's 63-bit
   int, so subtracting 1 yields exactly bits 0..61 — the historic
   [full 62] value. *)
let full_word = (1 lsl word_bits) - 1

let full n =
  check_universe "full" n;
  if n = 0 then empty
  else if n <= word_bits then of_int ((1 lsl n) - 1)
  else begin
    let words = (n + word_bits - 1) / word_bits in
    let ws = Array.make words full_word in
    let r = n - ((words - 1) * word_bits) in
    ws.(words - 1) <- (1 lsl r) - 1;
    Obj.repr ws (* r >= 1, so the top word is never zero *)
  end
