open Ftss_util

type ('s, 'm) round_record = {
  round : int;
  states_before : 's option array;
  sent : 'm option array;
  delivered : 'm Protocol.delivery list array;
  states_after : 's option array;
  know : Pidset.t array;
}

type ('s, 'm) t = {
  n : int;
  protocol_name : string;
  records : ('s, 'm) round_record array;
  crashed_at : int option array;
  omissions : (int * Pid.t * Pid.t) list;
  declared_faulty : Pidset.t;
  hash : int;
  windowed : bool;
}

(* Content hashing. Two independently seeded structural-hash streams are
   mixed into one 62-bit word: a single [Hashtbl.seeded_hash] yields only
   ~30 bits, far too few for the checker's multi-million-case dedup
   (birthday collisions would silently merge distinct executions). The
   multiplier is an odd splitmix64-style constant that fits OCaml's
   63-bit int. *)
let mix h x =
  let h = (h lxor x) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* The count budget must exceed any value we hash — truncation would hash
   distinct structures equal by design, not by accident. *)
let fold_value acc v =
  mix
    (mix acc (Hashtbl.seeded_hash_param max_int 256 0x1796 v))
    (Hashtbl.seeded_hash_param max_int 256 0x9e37 v)

let hash_seed = 0x0FC935EED
let fold_generator = fold_value

let seal_hash acc ~n ~protocol_name ~rounds ~crashed_at ~omissions ~declared_faulty =
  fold_value acc (n, protocol_name, rounds, crashed_at, omissions, declared_faulty)

let hash t = t.hash

let round_signature ~project t =
  Array.map
    (fun r ->
      let acc = ref (mix 0x51C0B5EE r.round) in
      Array.iteri
        (fun p st ->
          acc :=
            (match st with
            | None -> mix !acc (-1) (* crashed: no observable state *)
            | Some s -> fold_value !acc (project p s)))
        r.states_after;
      !acc)
    t.records

let length t = Array.length t.records

let check_round t round =
  if round < 1 || round > length t then
    invalid_arg (Printf.sprintf "Trace: round %d outside 1..%d" round (length t))

let record t ~round =
  check_round t round;
  t.records.(round - 1)

let state_before t ~round p = (record t ~round).states_before.(p)
let state_after t ~round p = (record t ~round).states_after.(p)

let correct t = Pidset.diff (Pidset.full t.n) t.declared_faulty

let crashed t = Pidset.of_pred t.n (fun p -> Option.is_some t.crashed_at.(p))

let blames_declared t =
  Pidset.subset (crashed t) t.declared_faulty
  && List.for_all
       (fun (_, src, dst) ->
         Pidset.mem src t.declared_faulty || Pidset.mem dst t.declared_faulty)
       t.omissions

let alive t ~round p =
  match t.crashed_at.(p) with None -> true | Some r -> round < r

(* The union of [{src} ∪ before.(src)] over a delivery list. *)
let rec senders_union before acc = function
  | [] -> acc
  | { Protocol.src; _ } :: rest ->
    senders_union before (Pidset.union (Pidset.add src acc) before.(src)) rest

let knowledge ~before delivered =
  let know = Array.copy before in
  let last = ref [] and last_union = ref Pidset.empty in
  for p = 0 to Array.length delivered - 1 do
    match delivered.(p) with
    | [] -> ()
    | ds ->
      if ds != !last then begin
        last := ds;
        last_union := senders_union before Pidset.empty ds
      end;
      know.(p) <- Pidset.union before.(p) !last_union
  done;
  know

let sub t ~first ~last =
  check_round t first;
  check_round t last;
  if first > last then invalid_arg "Trace.sub: empty interval";
  let records =
    Array.init (last - first + 1) (fun i -> { (t.records.(first - 1 + i)) with round = i + 1 })
  in
  let crashed_at =
    Array.map
      (fun cr ->
        match cr with
        | None -> None
        | Some r when r > last -> None
        | Some r -> Some (max 1 (r - first + 1)))
      t.crashed_at
  in
  let omissions =
    List.filter_map
      (fun (r, src, dst) ->
        if first <= r && r <= last then Some (r - first + 1, src, dst) else None)
      t.omissions
  in
  let hash =
    (* A window may start or end mid-corruption, so every entering state
       vector is treated as a generator — sound whatever the original
       execution did, at a cost only this cold path pays. *)
    seal_hash
      (Array.fold_left (fun acc r -> fold_generator acc r.states_before) hash_seed records)
      ~n:t.n ~protocol_name:t.protocol_name ~rounds:(Array.length records) ~crashed_at
      ~omissions ~declared_faulty:t.declared_faulty
  in
  { t with records; crashed_at; omissions; hash; windowed = true }

let pp_summary ppf t =
  Format.fprintf ppf "%s: n=%d rounds=%d faulty=%a omissions=%d" t.protocol_name
    t.n (length t) Pidset.pp t.declared_faulty
    (List.length t.omissions)

let pp_rounds pp_state ppf t =
  let pp_process record ppf p =
    match record.states_before.(p) with
    | None -> Format.fprintf ppf "%a:!" Pid.pp p
    | Some s ->
      let senders =
        List.map (fun { Protocol.src; _ } -> src) record.delivered.(p)
      in
      Format.fprintf ppf "%a:%a<-%a" Pid.pp p pp_state s Pidset.pp
        (Pidset.of_list senders)
  in
  let pp_round record =
    Format.fprintf ppf "@[<h>r%-3d " record.round;
    List.iter
      (fun p -> Format.fprintf ppf "%a  " (pp_process record) p)
      (Pid.all t.n);
    Format.fprintf ppf "@]@\n"
  in
  Array.iter pp_round t.records
