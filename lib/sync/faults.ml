open Ftss_util

type event =
  | Crash of { pid : Pid.t; round : int }
  | Drop of { src : Pid.t; dst : Pid.t; round : int }
  | Mute of { pid : Pid.t; first : int; last : int }
  | Deaf of { pid : Pid.t; first : int; last : int }
  | Isolate of { pid : Pid.t; first : int; last : int }
  | Blame of { pid : Pid.t }

(* One representation, built once per schedule: per-round rows of the
   pids whose messages the adversary omits, indexed by the 1-based round
   (slot 0 unused). Each link query is then a few [Pidset.mem] tests.
   The rows stop at the last round any omission names, so every later
   round is quiet, and a crash-only schedule has empty arrays. *)
type t = {
  n : int;
  faulty : Pidset.t;
  crash : int option array; (* pid -> crash round *)
  muted : Pidset.t array; (* round -> pids send-omitting *)
  deafened : Pidset.t array; (* round -> pids receive-omitting *)
  point : Pidset.t array; (* round * n + src -> dsts point-dropped *)
  quiet : bool array; (* round -> no omission of any kind *)
}

let n t = t.n
let faulty t = t.faulty
let f t = Pidset.cardinal t.faulty
let crash_round t p = t.crash.(p)

let quiet_round t ~round = round < 1 || round >= Array.length t.quiet || t.quiet.(round)

let drops t ~round ~src ~dst =
  src <> dst
  && round >= 1
  && round < Array.length t.quiet
  && (Pidset.mem src t.muted.(round)
     || Pidset.mem dst t.deafened.(round)
     || Pidset.mem dst t.point.((round * t.n) + src))

(* Rows for rounds [1..rounds], all quiet. *)
let sized ~n ~faulty ~crash ~rounds =
  let len = if rounds < 1 then 0 else rounds + 1 in
  {
    n;
    faulty;
    crash;
    muted = Array.make len Pidset.empty;
    deafened = Array.make len Pidset.empty;
    point = Array.make (len * n) Pidset.empty;
    quiet = Array.make len true;
  }

(* [p] joins row [i] of [rows], an omission in [round]. *)
let omit t rows ~round i p =
  rows.(i) <- Pidset.add p rows.(i);
  t.quiet.(round) <- false

let none n = sized ~n ~faulty:Pidset.empty ~crash:(Array.make n None) ~rounds:0

let check_pid ~n p =
  if not (Pid.is_valid ~n p) then
    invalid_arg (Format.asprintf "Faults: pid %a out of range for n=%d" Pid.pp p n)

let check_range first last =
  if first < 1 || last < first then invalid_arg "Faults: bad round interval"

let of_events ~n events =
  (* First pass: validate, declare the faulty set, record the crashes and
     find the last round an omission names, which sizes the rows. *)
  let crash = Array.make n None in
  let faulty = ref Pidset.empty in
  let mark p = faulty := Pidset.add p !faulty in
  let rounds = ref 0 in
  let absorb = function
    | Crash { pid; round } ->
      check_pid ~n pid;
      check_range round round;
      mark pid;
      let sooner = match crash.(pid) with None -> round | Some r -> min r round in
      crash.(pid) <- Some sooner
    | Drop { src; dst; round } ->
      check_pid ~n src;
      check_pid ~n dst;
      check_range round round;
      if Pid.equal src dst then invalid_arg "Faults: cannot drop a self-message";
      (* The culprit is ambiguous between a send and a receive omission; we
         conservatively declare both endpoints faulty only when neither is
         already declared, preferring the sender. *)
      if not (Pidset.mem src !faulty || Pidset.mem dst !faulty) then mark src;
      rounds := max !rounds round
    | Mute { pid; first; last } | Deaf { pid; first; last } | Isolate { pid; first; last } ->
      check_pid ~n pid;
      check_range first last;
      mark pid;
      rounds := max !rounds last
    | Blame { pid } ->
      check_pid ~n pid;
      mark pid
  in
  List.iter absorb events;
  (* Second pass: fill the rows. *)
  let t = sized ~n ~faulty:!faulty ~crash ~rounds:!rounds in
  let span rows pid first last =
    for round = first to last do
      omit t rows ~round round pid
    done
  in
  List.iter
    (function
      | Drop { src; dst; round } -> omit t t.point ~round ((round * n) + src) dst
      | Mute { pid; first; last } -> span t.muted pid first last
      | Deaf { pid; first; last } -> span t.deafened pid first last
      | Isolate { pid; first; last } ->
        span t.muted pid first last;
        span t.deafened pid first last
      | Crash _ | Blame _ -> ())
    events;
  t

let random_omission rng ~n ~f ~p_drop ~rounds =
  if f < 0 || f > n then invalid_arg "Faults.random_omission: f out of range";
  let chosen = Rng.sample rng f (Pid.all n) in
  let faulty = Pidset.of_list chosen in
  let t = sized ~n ~faulty ~crash:(Array.make n None) ~rounds in
  for round = 1 to rounds do
    List.iter
      (fun src ->
        List.iter
          (fun dst ->
            if
              (not (Pid.equal src dst))
              && (Pidset.mem src faulty || Pidset.mem dst faulty)
              && Rng.chance rng p_drop
            then omit t t.point ~round ((round * n) + src) dst)
          (Pid.all n))
      (Pid.all n)
  done;
  t

let rolling_mute ~n ~victim ~period ~rounds =
  if period < 1 then invalid_arg "Faults.rolling_mute: period < 1";
  let rec windows start acc =
    if start > rounds then acc
    else
      let last = min rounds (start + period - 1) in
      windows (start + (2 * period)) (Mute { pid = victim; first = start; last } :: acc)
  in
  of_events ~n (windows 1 [])

let blame t ~src ~dst =
  if Pidset.mem src t.faulty then Some src
  else if Pidset.mem dst t.faulty then Some dst
  else None

let pp ppf t =
  Format.fprintf ppf "@[<v>faults: n=%d f=%d faulty=%a@]" t.n (f t) Pidset.pp t.faulty
