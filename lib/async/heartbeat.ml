open Ftss_util

type t = {
  last_heard : int array;
  timeout : int array;
  down : bool array;
  backoff : int;
}

type msg = Heartbeat

let create ~n ~initial_timeout ~backoff =
  if initial_timeout < 1 || backoff < 0 then
    invalid_arg "Heartbeat.create: bad timeout parameters";
  {
    last_heard = Array.make n 0;
    timeout = Array.make n initial_timeout;
    down = Array.make n false;
    backoff;
  }

let corrupt rng ~time_bound ~timeout_bound t =
  let down = Array.map (fun _ -> Rng.bool rng) t.down in
  let timeout = Array.map (fun _ -> 1 + Rng.int rng timeout_bound) t.timeout in
  let last_heard = Array.map (fun _ -> Rng.int rng time_bound) t.last_heard in
  { t with last_heard; timeout; down }

let tick t ~self ~now =
  (* [timeout] is not written on the tick path, so the copy is elided;
     every writer ([heard], below) copies before mutating, which keeps
     the shared array safe under value semantics. *)
  let last_heard = Array.copy t.last_heard and down = Array.copy t.down in
  Array.iteri
    (fun s heard ->
      if Pid.equal s self then down.(s) <- false
      else begin
        (* A corrupted last-heard time claiming the future is clamped so
           the deadline arithmetic self-heals. *)
        if heard > now then last_heard.(s) <- now;
        down.(s) <- now - last_heard.(s) > t.timeout.(s)
      end)
    last_heard;
  { t with last_heard; down }

let heard t ~src ~now =
  let last_heard = Array.copy t.last_heard
  and timeout = Array.copy t.timeout
  and down = Array.copy t.down in
  if down.(src) then
    (* The suspicion was premature: back the deadline off. *)
    timeout.(src) <- timeout.(src) + t.backoff;
  last_heard.(src) <- now;
  down.(src) <- false;
  { t with last_heard; timeout; down }

let suspected t s = t.down.(s)
