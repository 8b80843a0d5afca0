open Ftss_util

type event =
  | Crash of { pid : Pid.t; round : int }
  | Drop of { src : Pid.t; dst : Pid.t; round : int }
  | Mute of { pid : Pid.t; first : int; last : int }
  | Deaf of { pid : Pid.t; first : int; last : int }
  | Isolate of { pid : Pid.t; first : int; last : int }
  | Blame of { pid : Pid.t }

type t = {
  n : int;
  faulty : Pidset.t;
  crash : int option array; (* pid -> crash round *)
  point_drops : (int * Pid.t * Pid.t, unit) Hashtbl.t;
  mute : (int * int) list array; (* pid -> send-omission intervals *)
  deaf : (int * int) list array; (* pid -> receive-omission intervals *)
}

let n t = t.n
let faulty t = t.faulty
let f t = Pidset.cardinal t.faulty
let crash_round t p = t.crash.(p)

let in_interval round (first, last) = first <= round && round <= last

let drops t ~round ~src ~dst =
  if Pid.equal src dst then false
  else
    Hashtbl.mem t.point_drops (round, src, dst)
    || List.exists (in_interval round) t.mute.(src)
    || List.exists (in_interval round) t.deaf.(dst)

(* Precompiled drop tables: one bitmask row per round. [drops] above is
   the reference semantics; the runner asks for the whole horizon up
   front so its inner delivery loop does integer tests instead of
   [Hashtbl.mem] plus two [List.exists] interval scans per link.

   Two row layouts, chosen by system size: up to 62 processes a row is a
   single int (the historic fast path, one shift-and-test per query);
   beyond that each row is a run of 32-bit words, still a few integer
   instructions per query. The 32-bit packing is private to this module
   and unrelated to [Pidset]'s layout — it exists so word and bit indices
   are shifts and masks rather than divisions. *)
type table =
  | All_quiet  (* no omission scheduled anywhere in the horizon *)
  | Rows of {
      tn : int;
      muted : int array;  (* round -> bitmask of pids send-omitting that round *)
      deafened : int array;  (* round -> bitmask of pids receive-omitting *)
      point : int array;  (* round * tn + src -> bitmask of dsts point-dropped *)
      quiet : bool array;  (* round -> no drop of any kind scheduled *)
    }
  | Wide_rows of {
      tn : int;
      words : int;  (* 32-bit words per pid row: (tn + 31) / 32 *)
      muted : int array;  (* (round * words + p lsr 5) bit (p land 31) *)
      deafened : int array;
      point : int array;  (* ((round * tn + src) * words + dst lsr 5) *)
      quiet : bool array;
    }

let one_word_cap = Pidset.max_small + 1

let precompile t ~rounds =
  if rounds < 0 then invalid_arg "Faults.precompile: negative rounds";
  if
    Hashtbl.length t.point_drops = 0
    && Array.for_all (fun l -> l = []) t.mute
    && Array.for_all (fun l -> l = []) t.deaf
  then All_quiet (* crash-only and failure-free schedules skip the rows *)
  else if t.n <= one_word_cap then begin
    let muted = Array.make (rounds + 1) 0 in
    let deafened = Array.make (rounds + 1) 0 in
    let point = Array.make ((rounds + 1) * max 1 t.n) 0 in
    let quiet = Array.make (rounds + 1) true in
    for p = 0 to t.n - 1 do
      let mark arr intervals =
        List.iter
          (fun (first, last) ->
            for r = max 1 first to min last rounds do
              arr.(r) <- arr.(r) lor (1 lsl p);
              quiet.(r) <- false
            done)
          intervals
      in
      mark muted t.mute.(p);
      mark deafened t.deaf.(p)
    done;
    Hashtbl.iter
      (fun (round, src, dst) () ->
        if 1 <= round && round <= rounds then begin
          let i = (round * t.n) + src in
          point.(i) <- point.(i) lor (1 lsl dst);
          quiet.(round) <- false
        end)
      t.point_drops;
    Rows { tn = t.n; muted; deafened; point; quiet }
  end
  else begin
    let words = (t.n + 31) / 32 in
    let muted = Array.make ((rounds + 1) * words) 0 in
    let deafened = Array.make ((rounds + 1) * words) 0 in
    let point = Array.make ((rounds + 1) * t.n * words) 0 in
    let quiet = Array.make (rounds + 1) true in
    let set arr row p =
      let i = (row * words) + (p lsr 5) in
      arr.(i) <- arr.(i) lor (1 lsl (p land 31))
    in
    for p = 0 to t.n - 1 do
      let mark arr intervals =
        List.iter
          (fun (first, last) ->
            for r = max 1 first to min last rounds do
              set arr r p;
              quiet.(r) <- false
            done)
          intervals
      in
      mark muted t.mute.(p);
      mark deafened t.deaf.(p)
    done;
    Hashtbl.iter
      (fun (round, src, dst) () ->
        if 1 <= round && round <= rounds then begin
          set point ((round * t.n) + src) dst;
          quiet.(round) <- false
        end)
      t.point_drops;
    Wide_rows { tn = t.n; words; muted; deafened; point; quiet }
  end

let quiet_round tbl ~round =
  match tbl with
  | All_quiet -> true
  | Rows r -> r.quiet.(round)
  | Wide_rows r -> r.quiet.(round)

let table_drops tbl ~round ~src ~dst =
  match tbl with
  | All_quiet -> false
  | Rows r ->
    src <> dst
    && ((r.muted.(round) lsr src) land 1)
       lor ((r.deafened.(round) lsr dst) land 1)
       lor ((r.point.((round * r.tn) + src) lsr dst) land 1)
       <> 0
  | Wide_rows r ->
    src <> dst
    && ((r.muted.((round * r.words) + (src lsr 5)) lsr (src land 31)) land 1)
       lor ((r.deafened.((round * r.words) + (dst lsr 5)) lsr (dst land 31)) land 1)
       lor
       ((r.point.((((round * r.tn) + src) * r.words) + (dst lsr 5)) lsr (dst land 31))
       land 1)
       <> 0

let none n =
  {
    n;
    faulty = Pidset.empty;
    crash = Array.make n None;
    point_drops = Hashtbl.create 1;
    mute = Array.make n [];
    deaf = Array.make n [];
  }

let check_pid ~n p =
  if not (Pid.is_valid ~n p) then
    invalid_arg (Format.asprintf "Faults: pid %a out of range for n=%d" Pid.pp p n)

let check_range first last =
  if first < 1 || last < first then invalid_arg "Faults: bad round interval"

let of_events ~n events =
  let t = none n in
  let faulty = ref Pidset.empty in
  let mark p = faulty := Pidset.add p !faulty in
  let absorb = function
    | Crash { pid; round } ->
      check_pid ~n pid;
      check_range round round;
      mark pid;
      let sooner =
        match t.crash.(pid) with None -> round | Some r -> min r round
      in
      t.crash.(pid) <- Some sooner
    | Drop { src; dst; round } ->
      check_pid ~n src;
      check_pid ~n dst;
      check_range round round;
      if Pid.equal src dst then invalid_arg "Faults: cannot drop a self-message";
      (* The culprit is ambiguous between a send and a receive omission; we
         conservatively declare both endpoints faulty only when neither is
         already declared, preferring the sender. *)
      if not (Pidset.mem src !faulty || Pidset.mem dst !faulty) then mark src;
      Hashtbl.replace t.point_drops (round, src, dst) ()
    | Mute { pid; first; last } ->
      check_pid ~n pid;
      check_range first last;
      mark pid;
      t.mute.(pid) <- (first, last) :: t.mute.(pid)
    | Deaf { pid; first; last } ->
      check_pid ~n pid;
      check_range first last;
      mark pid;
      t.deaf.(pid) <- (first, last) :: t.deaf.(pid)
    | Isolate { pid; first; last } ->
      check_pid ~n pid;
      check_range first last;
      mark pid;
      t.mute.(pid) <- (first, last) :: t.mute.(pid);
      t.deaf.(pid) <- (first, last) :: t.deaf.(pid)
    | Blame { pid } ->
      check_pid ~n pid;
      mark pid
  in
  List.iter absorb events;
  { t with faulty = !faulty }

let random_omission rng ~n ~f ~p_drop ~rounds =
  if f < 0 || f > n then invalid_arg "Faults.random_omission: f out of range";
  let chosen = Rng.sample rng f (Pid.all n) in
  let faulty = Pidset.of_list chosen in
  let t = { (none n) with faulty } in
  for round = 1 to rounds do
    List.iter
      (fun src ->
        List.iter
          (fun dst ->
            if
              (not (Pid.equal src dst))
              && (Pidset.mem src faulty || Pidset.mem dst faulty)
              && Rng.chance rng p_drop
            then Hashtbl.replace t.point_drops (round, src, dst) ())
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
