(* Splitmix64 (Steele, Lea & Flood 2014): tiny, fast, and statistically
   strong enough for simulation workloads; crucially, fully deterministic
   across platforms, unlike [Stdlib.Random] whose algorithm changed between
   OCaml releases. *)

(* The state lives unboxed in an 8-byte buffer: reading and writing it
   through [Bytes.get_int64_ne]/[set_int64_ne] inside one inlined draw
   keeps every intermediate [int64] in a register, so [int], [int_in],
   [bool] and [chance] allocate nothing. A mutable [int64] field would
   box each new state and store it through the write barrier. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_state t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  s

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 t = mix (next_state t)

let split t = of_state (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int without
     wrapping negative. Modulo is slightly biased but the bias is < 2^-38
     for every bound used in this repository (all far below 2^24). *)
  let raw = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  raw mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.to_int (bits64 t) land 1 = 1

let[@inline] float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (raw /. 9007199254740992.0 (* 2^53 *))

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let sample t k xs =
  let len = List.length xs in
  if k >= len then xs
  else begin
    (* Select k distinct positions, then keep original order. *)
    let chosen = Hashtbl.create k in
    let rec draw remaining =
      if remaining = 0 then ()
      else begin
        let i = int t len in
        if Hashtbl.mem chosen i then draw remaining
        else begin
          Hashtbl.add chosen i ();
          draw (remaining - 1)
        end
      end
    in
    draw (max 0 k);
    List.filteri (fun i _ -> Hashtbl.mem chosen i) xs
  end
