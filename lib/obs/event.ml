open Ftss_util

type body =
  | Round_begin
  | Round_end
  | Send of { src : Pid.t; dst : Pid.t option }
  | Deliver of { src : Pid.t; dst : Pid.t }
  | Drop of { src : Pid.t; dst : Pid.t; blame : Pid.t option }
  | Crash of { pid : Pid.t }
  | Corrupt of { pid : Pid.t }
  | Suspect_add of { observer : Pid.t; subject : Pid.t }
  | Suspect_remove of { observer : Pid.t; subject : Pid.t }
  | Decide of { pid : Pid.t; instance : int; value : int }
  | Window_open
  | Window_close of { opened : int; measured : int }
  | Case_start of { case : int }
  | Case_verdict of { case : int; ok : bool; dedup : bool; states : int }
  | Coverage of { execs : int; corpus : int; points : int }
  | Submit of { pid : Pid.t; ops : int }
  | Commit of { pid : Pid.t; slot : int; ops : int }
  | Apply of { pid : Pid.t; slot : int; digest : int }
  | Recover of { pid : Pid.t; slots : int }

type t = { time : int; body : body }

let make ~time body = { time; body }

type field = Int of string | Pid of string | Opt_pid of string | Flags of string list
type spec = { name : string; fields : field list }

(* Row [tag] is constructor [tag] of [body]; field [i] of a row lives in
   packed slot [i + 1]. *)
let kinds =
  [|
    { name = "round_begin"; fields = [] };
    { name = "round_end"; fields = [] };
    { name = "send"; fields = [ Pid "src"; Opt_pid "dst" ] };
    { name = "deliver"; fields = [ Pid "src"; Pid "dst" ] };
    { name = "drop"; fields = [ Pid "src"; Pid "dst"; Opt_pid "blame" ] };
    { name = "crash"; fields = [ Pid "pid" ] };
    { name = "corrupt"; fields = [ Pid "pid" ] };
    { name = "suspect_add"; fields = [ Pid "observer"; Pid "subject" ] };
    { name = "suspect_remove"; fields = [ Pid "observer"; Pid "subject" ] };
    { name = "decide"; fields = [ Pid "pid"; Int "instance"; Int "value" ] };
    { name = "window_open"; fields = [] };
    { name = "window_close"; fields = [ Int "opened"; Int "measured" ] };
    { name = "case_start"; fields = [ Int "case" ] };
    { name = "case_verdict"; fields = [ Int "case"; Flags [ "ok"; "dedup" ]; Int "states" ] };
    { name = "coverage"; fields = [ Int "execs"; Int "corpus"; Int "points" ] };
    { name = "submit"; fields = [ Pid "pid"; Int "ops" ] };
    { name = "commit"; fields = [ Pid "pid"; Int "slot"; Int "ops" ] };
    { name = "apply"; fields = [ Pid "pid"; Int "slot"; Int "digest" ] };
    { name = "recover"; fields = [ Pid "pid"; Int "slots" ] };
  |]

let tag_bits = 5
let tag_mask = (1 lsl tag_bits) - 1
let absent = -1

(* Top-level, not local to [pack_into]: a local closure there would stop
   ocamlopt from inlining the packer into the flight recorder. *)
let[@inline] slot_of_opt = function Some p -> p | None -> absent

let[@inline] pack_into d base { time; body } =
  let set tag a b c =
    d.(base) <- (time lsl tag_bits) lor tag;
    d.(base + 1) <- a;
    d.(base + 2) <- b;
    d.(base + 3) <- c
  in
  match body with
  | Round_begin -> set 0 0 0 0
  | Round_end -> set 1 0 0 0
  | Send { src; dst } -> set 2 src (slot_of_opt dst) 0
  | Deliver { src; dst } -> set 3 src dst 0
  | Drop { src; dst; blame } -> set 4 src dst (slot_of_opt blame)
  | Crash { pid } -> set 5 pid 0 0
  | Corrupt { pid } -> set 6 pid 0 0
  | Suspect_add { observer; subject } -> set 7 observer subject 0
  | Suspect_remove { observer; subject } -> set 8 observer subject 0
  | Decide { pid; instance; value } -> set 9 pid instance value
  | Window_open -> set 10 0 0 0
  | Window_close { opened; measured } -> set 11 opened measured 0
  | Case_start { case } -> set 12 case 0 0
  | Case_verdict { case; ok; dedup; states } ->
    set 13 case (Bool.to_int ok lor (Bool.to_int dedup lsl 1)) states
  | Coverage { execs; corpus; points } -> set 14 execs corpus points
  | Submit { pid; ops } -> set 15 pid ops 0
  | Commit { pid; slot; ops } -> set 16 pid slot ops
  | Apply { pid; slot; digest } -> set 17 pid slot digest
  | Recover { pid; slots } -> set 18 pid slots 0

let body_at d base =
  let a = d.(base + 1) and b = d.(base + 2) and c = d.(base + 3) in
  let opt v = if v < 0 then None else Some v in
  match d.(base) land tag_mask with
  | 0 -> Round_begin
  | 1 -> Round_end
  | 2 -> Send { src = a; dst = opt b }
  | 3 -> Deliver { src = a; dst = b }
  | 4 -> Drop { src = a; dst = b; blame = opt c }
  | 5 -> Crash { pid = a }
  | 6 -> Corrupt { pid = a }
  | 7 -> Suspect_add { observer = a; subject = b }
  | 8 -> Suspect_remove { observer = a; subject = b }
  | 9 -> Decide { pid = a; instance = b; value = c }
  | 10 -> Window_open
  | 11 -> Window_close { opened = a; measured = b }
  | 12 -> Case_start { case = a }
  | 13 -> Case_verdict { case = a; ok = b land 1 <> 0; dedup = b land 2 <> 0; states = c }
  | 14 -> Coverage { execs = a; corpus = b; points = c }
  | 15 -> Submit { pid = a; ops = b }
  | 16 -> Commit { pid = a; slot = b; ops = c }
  | 17 -> Apply { pid = a; slot = b; digest = c }
  | 18 -> Recover { pid = a; slots = b }
  | tag -> invalid_arg (Printf.sprintf "Event.unpack_from: unknown tag %d" tag)

let unpack_from d base = { time = d.(base) asr tag_bits; body = body_at d base }

let packed ev =
  let d = Array.make 4 0 in
  pack_into d 0 ev;
  d

let spec_of d = kinds.(d.(0) land tag_mask)
let kind ev = (spec_of (packed ev)).name
let flag v bit = v land (1 lsl bit) <> 0

let to_json ev =
  let d = packed ev in
  let spec = spec_of d in
  let field i f =
    let v = d.(i + 1) in
    match f with
    | Int k | Pid k -> [ (k, Json.Int v) ]
    | Opt_pid k -> if v < 0 then [] else [ (k, Json.Int v) ]
    | Flags ks -> List.mapi (fun bit k -> (k, Json.Bool (flag v bit))) ks
  in
  Json.Obj
    (("t", Json.Int ev.time)
    :: ("ev", Json.String spec.name)
    :: List.concat (List.mapi field spec.fields))

let of_json json =
  let ( let* ) = Option.bind in
  let int k = Option.bind (Json.member k json) Json.to_int_opt in
  let pid p = if 0 <= p && p <= Pidset.max_pid then Some p else None in
  let field = function
    | Int k -> int k
    | Pid k -> Option.bind (int k) pid
    | Opt_pid k -> ( match int k with None -> Some absent | Some p -> pid p)
    | Flags ks ->
      let rec bits bit = function
        | [] -> Some 0
        | k :: rest ->
          let* b = Option.bind (Json.member k json) Json.to_bool_opt in
          let* v = bits (bit + 1) rest in
          Some (v lor (Bool.to_int b lsl bit))
      in
      bits 0 ks
  in
  let* time = int "t" in
  let* name = Option.bind (Json.member "ev" json) Json.to_string_opt in
  let* tag = Array.find_index (fun s -> s.name = name) kinds in
  (* The body is decoded from slots alone: [time] stays unpacked, so it
     keeps its full range. *)
  let d = Array.make 4 0 in
  d.(0) <- tag;
  let rec fill i = function
    | [] -> Some { time; body = body_at d 0 }
    | f :: rest ->
      let* v = field f in
      d.(i) <- v;
      fill (i + 1) rest
  in
  fill 1 kinds.(tag).fields

let pp ppf ev =
  let d = packed ev in
  let spec = spec_of d in
  Format.fprintf ppf "t=%-5d %s" ev.time spec.name;
  match ev.body with
  | Send { src; dst = None } -> Format.fprintf ppf " %a->*" Pid.pp src
  | Send { src; dst = Some dst } | Deliver { src; dst } ->
    Format.fprintf ppf " %a->%a" Pid.pp src Pid.pp dst
  | Drop { src; dst; blame } -> (
    Format.fprintf ppf " %a->%a" Pid.pp src Pid.pp dst;
    match blame with
    | Some b -> Format.fprintf ppf " blame=%a" Pid.pp b
    | None -> ())
  | Suspect_add { observer; subject } ->
    Format.fprintf ppf " %a suspects %a" Pid.pp observer Pid.pp subject
  | Suspect_remove { observer; subject } ->
    Format.fprintf ppf " %a trusts %a" Pid.pp observer Pid.pp subject
  | _ ->
    List.iteri
      (fun i f ->
        let v = d.(i + 1) in
        match f with
        | Pid _ -> Format.fprintf ppf " %a" Pid.pp v
        | Int k -> Format.fprintf ppf " %s=%d" k v
        | Opt_pid k -> if v >= 0 then Format.fprintf ppf " %s=%a" k Pid.pp v
        | Flags ks -> List.iteri (fun bit k -> Format.fprintf ppf " %s=%b" k (flag v bit)) ks)
      spec.fields
