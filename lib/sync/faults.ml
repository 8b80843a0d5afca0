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
   [(r - 1) * (n + 2)] in one array: the pids send-omitting, the pids
   receive-omitting, then for each src the dsts its point drops reach.
   Each link query is then a few [Pidset.mem] tests. The rows span
   rounds [1..last], the last an omission names, and every later round
   is quiet; a schedule without omissions has no rows, and one without
   crashes no crash table. A point drop of a link that an earlier point
   drop already omits changes no row; only [atoms] reads it, off
   [again]. A schedule is filled in place while it is built, and written
   afterwards only by [rebuild], which empties it first and keeps the
   array for the next build. *)
type t = {
  n : int;
  mutable faulty : Pidset.t;
  mutable crash : int option array; (* pid -> crash round, or empty *)
  mutable rows : Pidset.t array;
  mutable last : int;
  mutable again : (int * Pid.t * Pid.t) list; (* (round, src, dst) *)
}

let n t = t.n
let faulty t = t.faulty
let f t = Pidset.cardinal t.faulty
let crash_round t p = if Array.length t.crash = 0 then None else t.crash.(p)

(* Where row [i] of round [round] sits: 0 send omission, 1 receive
   omission, [2 + src] a point drop from [src]. *)
let slot t ~round i = ((round - 1) * (t.n + 2)) + i

(* Where round [round]'s rows start, or -1 past the last. *)
let base t round = if round >= 1 && round <= t.last then slot t ~round 0 else -1

(* [Pidset.is_empty] without a call across libraries: the set's form is
   canonical, so the empty set is one value. *)
let blank s = s == Pidset.empty

let quiet_round t ~round =
  let b = base t round in
  let quiet = ref true and i = ref 0 in
  if b >= 0 then
    while !quiet && !i < t.n + 2 do
      quiet := blank t.rows.(b + !i);
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

(* Rows for rounds [1..last] at least, keeping those already written.
   A new array spans the horizon [rounds] when that is finite, so a
   schedule built over it allocates its rows once. *)
let reserve t ~rounds last =
  if last > t.last then begin
    if Array.length t.rows < last * (t.n + 2) then begin
      let span = if rounds < max_int then rounds else last in
      let rows = Array.make (span * (t.n + 2)) Pidset.empty in
      Array.blit t.rows 0 rows 0 (Array.length t.rows);
      t.rows <- rows
    end;
    t.last <- last
  end

let empty ~n ~faulty = { n; faulty; crash = [||]; rows = [||]; last = 0; again = [] }

(* [p] joins row [i] of round [round]. *)
let omit t ~round i p =
  let j = slot t ~round i in
  t.rows.(j) <- Pidset.add p t.rows.(j)

let none n = empty ~n ~faulty:Pidset.empty

let check_pid ~n p =
  if not (Pid.is_valid ~n p) then
    invalid_arg (Format.asprintf "Faults: pid %a out of range for n=%d" Pid.pp p n)

let check_range ~rounds first last =
  if first < 1 || last < first then invalid_arg "Faults: bad round interval";
  if last > rounds then invalid_arg "Faults: round past the horizon"

let mark t p = t.faulty <- Pidset.add p t.faulty

(* Checks an omission by [pid] in rounds [first..last] and makes room
   for it. *)
let omission t ~rounds pid first last =
  check_pid ~n:t.n pid;
  check_range ~rounds first last;
  reserve t ~rounds last

(* [pid] send-omits ([send]) and receive-omits ([receive]) in rounds
   [first..last]. *)
let interval t ~rounds pid first last ~send ~receive =
  omission t ~rounds pid first last;
  mark t pid;
  for round = first to last do
    if send then omit t ~round 0 pid;
    if receive then omit t ~round 1 pid
  done

(* Adds one event to a schedule being built. *)
let add t ~rounds = function
  | Crash { pid; round } -> (
    check_pid ~n:t.n pid;
    check_range ~rounds round round;
    mark t pid;
    if Array.length t.crash = 0 then t.crash <- Array.make t.n None;
    match t.crash.(pid) with
    | Some r when r <= round -> ()
    | _ -> t.crash.(pid) <- Some round)
  | Drop { src; dst; round } ->
    check_pid ~n:t.n dst;
    omission t ~rounds src round round;
    if Pid.equal src dst then invalid_arg "Faults: cannot drop a self-message";
    (* The culprit is ambiguous between a send and a receive omission; we
       conservatively declare both endpoints faulty only when neither is
       already declared, preferring the sender. *)
    if not (Pidset.mem src t.faulty || Pidset.mem dst t.faulty) then mark t src;
    if Pidset.mem dst t.rows.(slot t ~round (2 + src)) then
      t.again <- (round, src, dst) :: t.again
    else omit t ~round (2 + src) dst
  | Mute { pid; first; last } -> interval t ~rounds pid first last ~send:true ~receive:false
  | Deaf { pid; first; last } -> interval t ~rounds pid first last ~send:false ~receive:true
  | Isolate { pid; first; last } -> interval t ~rounds pid first last ~send:true ~receive:true
  | Blame { pid } ->
    check_pid ~n:t.n pid;
    mark t pid

let rebuild t ~rounds fill x =
  t.faulty <- Pidset.empty;
  t.crash <- [||];
  if t.last > 0 then Array.fill t.rows 0 (t.last * (t.n + 2)) Pidset.empty;
  t.last <- 0;
  t.again <- [];
  fill (add t ~rounds) x

let of_events ~n events =
  let t = none n in
  List.iter (add t ~rounds:max_int) events;
  t

(* Atom kinds: 0 crashed, 1 mute, 2 deaf, 3 isolate, 4 link; atoms lie
   in [1, 5n^2] and order as (kind, pid, peer). *)
let atom ~n kind pid peer = (((kind * n) + pid) * n) + peer + 1

(* How many of the point drops in [again] name [src -> dst] at [round]. *)
let rec repeats round src dst = function
  | [] -> 0
  | (r, s, d) :: l -> Bool.to_int (r = round && s = src && d = dst) + repeats round src dst l

let crashed t p round =
  Array.length t.crash > 0 && match t.crash.(p) with Some c -> c <= round | None -> false

(* Writes a [kind] atom for each pid of [s] from [out.(k)] on; returns
   the new count. *)
let put_pids ~n kind s out k =
  let k = ref k and s = ref s and p = ref 0 in
  while not (blank !s) do
    if Pidset.mem !p !s then begin
      out.(!k) <- atom ~n kind !p 0;
      incr k;
      s := Pidset.remove !p !s
    end;
    incr p
  done;
  !k

let atoms t ~round out =
  let n = t.n in
  let k = ref 0 in
  if Array.length t.crash > 0 then
    for p = 0 to n - 1 do
      if crashed t p round then begin
        out.(!k) <- atom ~n 0 p 0;
        incr k
      end
    done;
  let b = base t round in
  if b >= 0 then begin
    let send = t.rows.(b) and receive = t.rows.(b + 1) in
    if blank receive then k := put_pids ~n 1 send out !k
    else if blank send then k := put_pids ~n 2 receive out !k
    else begin
      k := put_pids ~n 1 (Pidset.diff send receive) out !k;
      k := put_pids ~n 2 (Pidset.diff receive send) out !k;
      k := put_pids ~n 3 (Pidset.inter send receive) out !k
    end;
    (* A point drop that a crashed endpoint, a send-omitting sender or a
       receive-omitting receiver already accounts for realizes nothing. *)
    for src = 0 to n - 1 do
      let row = t.rows.(b + 2 + src) in
      if not (blank row || Pidset.mem src send || crashed t src round) then
        for dst = 0 to n - 1 do
          if Pidset.mem dst row && not (Pidset.mem dst receive || crashed t dst round) then
            for _ = 0 to repeats round src dst t.again do
              out.(!k) <- atom ~n 4 src dst;
              incr k
            done
        done
    done
  end;
  !k

let random_omission rng ~n ~f ~p_drop ~rounds =
  if f < 0 || f > n then invalid_arg "Faults.random_omission: f out of range";
  let chosen = Rng.sample rng f (Pid.all n) in
  let faulty = Pidset.of_list chosen in
  let t = empty ~n ~faulty in
  if rounds >= 1 then reserve t ~rounds rounds;
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
