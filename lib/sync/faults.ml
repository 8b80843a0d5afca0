open Ftss_util

type event =
  | Crash of { pid : Pid.t; round : int }
  | Drop of { src : Pid.t; dst : Pid.t; round : int }
  | Mute of { pid : Pid.t; first : int; last : int }
  | Deaf of { pid : Pid.t; first : int; last : int }
  | Isolate of { pid : Pid.t; first : int; last : int }
  | Blame of { pid : Pid.t }

(* One representation, built once per schedule: per-round rows of the
   pids whose messages the adversary omits. Round [r]'s rows sit at
   [r * (n + 2)] in one array (rounds are 1-based, so the first [n + 2]
   slots are unused): the pids send-omitting, the pids receive-omitting,
   then for each src the dsts its point drops reach. Each link query is
   then a few [Pidset.mem] tests. The rows stop at the horizon the
   schedule is built with, so every later round is quiet; a schedule
   without omissions has no rows, and one without crashes no crash
   table. A schedule is filled in place while it is built and never
   written afterwards. *)
type t = {
  n : int;
  mutable faulty : Pidset.t;
  mutable crash : int option array; (* pid -> crash round, or empty *)
  mutable rows : Pidset.t array;
}

let n t = t.n
let faulty t = t.faulty
let f t = Pidset.cardinal t.faulty
let crash_round t p = if Array.length t.crash = 0 then None else t.crash.(p)

(* Where round [round]'s rows start, or -1 past the last. *)
let base t round =
  let b = round * (t.n + 2) in
  if round >= 1 && b < Array.length t.rows then b else -1

let quiet_round t ~round =
  let b = base t round in
  let quiet = ref true and i = ref 0 in
  if b >= 0 then
    while !quiet && !i < t.n + 2 do
      quiet := Pidset.is_empty t.rows.(b + !i);
      incr i
    done;
  !quiet

let drops t ~round ~src ~dst =
  src <> dst
  &&
  let b = base t round in
  b >= 0
  && (Pidset.mem src t.rows.(b)
     || Pidset.mem dst t.rows.(b + 1)
     || Pidset.mem dst t.rows.(b + 2 + src))

(* Quiet rows for rounds [1..rounds]. *)
let size_rows t ~rounds = t.rows <- Array.make ((rounds + 1) * (t.n + 2)) Pidset.empty

let empty ~n ~faulty = { n; faulty; crash = [||]; rows = [||] }

(* [p] joins row [i] of round [round]: 0 send omission, 1 receive
   omission, [2 + src] a point drop from [src]. *)
let omit t ~round i p =
  let j = (round * (t.n + 2)) + i in
  t.rows.(j) <- Pidset.add p t.rows.(j)

let none n = empty ~n ~faulty:Pidset.empty

let check_pid ~n p =
  if not (Pid.is_valid ~n p) then
    invalid_arg (Format.asprintf "Faults: pid %a out of range for n=%d" Pid.pp p n)

let check_range ~rounds first last =
  if first < 1 || last < first then invalid_arg "Faults: bad round interval";
  if last > rounds then invalid_arg "Faults: omission past the horizon"

let mark t p = t.faulty <- Pidset.add p t.faulty

(* Checks an omission by [pid] in rounds [first..last]; the rows are
   sized at the first one. *)
let omission t ~rounds pid first last =
  check_pid ~n:t.n pid;
  check_range ~rounds first last;
  if Array.length t.rows = 0 then size_rows t ~rounds

let span t i pid first last =
  for round = first to last do
    omit t ~round i pid
  done

(* Adds one event to a schedule being built. *)
let add t ~rounds = function
  | Crash { pid; round } ->
    check_pid ~n:t.n pid;
    if round < 1 then invalid_arg "Faults: bad round interval";
    mark t pid;
    if Array.length t.crash = 0 then t.crash <- Array.make t.n None;
    let sooner = match t.crash.(pid) with None -> round | Some r -> Int.min r round in
    t.crash.(pid) <- Some sooner
  | Drop { src; dst; round } ->
    check_pid ~n:t.n dst;
    omission t ~rounds src round round;
    if Pid.equal src dst then invalid_arg "Faults: cannot drop a self-message";
    (* The culprit is ambiguous between a send and a receive omission; we
       conservatively declare both endpoints faulty only when neither is
       already declared, preferring the sender. *)
    if not (Pidset.mem src t.faulty || Pidset.mem dst t.faulty) then mark t src;
    omit t ~round (2 + src) dst
  | Mute { pid; first; last } ->
    omission t ~rounds pid first last;
    mark t pid;
    span t 0 pid first last
  | Deaf { pid; first; last } ->
    omission t ~rounds pid first last;
    mark t pid;
    span t 1 pid first last
  | Isolate { pid; first; last } ->
    omission t ~rounds pid first last;
    mark t pid;
    span t 0 pid first last;
    span t 1 pid first last
  | Blame { pid } ->
    check_pid ~n:t.n pid;
    mark t pid

let build ~n ~rounds fill =
  let t = empty ~n ~faulty:Pidset.empty in
  fill (add t ~rounds);
  t

(* The horizon of a list: the last round any of its omissions names. *)
let horizon events =
  List.fold_left
    (fun acc -> function
      | Drop { round; _ } -> Int.max acc round
      | Mute { last; _ } | Deaf { last; _ } | Isolate { last; _ } -> Int.max acc last
      | Crash _ | Blame _ -> acc)
    0 events

let of_events ~n events =
  build ~n ~rounds:(horizon events) (fun add -> List.iter add events)

let random_omission rng ~n ~f ~p_drop ~rounds =
  if f < 0 || f > n then invalid_arg "Faults.random_omission: f out of range";
  let chosen = Rng.sample rng f (Pid.all n) in
  let faulty = Pidset.of_list chosen in
  let t = empty ~n ~faulty in
  if rounds >= 1 then size_rows t ~rounds;
  for round = 1 to rounds do
    List.iter
      (fun src ->
        List.iter
          (fun dst ->
            if
              (not (Pid.equal src dst))
              && (Pidset.mem src faulty || Pidset.mem dst faulty)
              && Rng.chance rng p_drop
            then omit t ~round (2 + src) dst)
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
