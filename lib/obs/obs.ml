open Ftss_util

type t = {
  mutable sinks : Sink.t array;
  registry : Metrics.t;
  record : bool;
  threadsafe : bool;
  mutex : Mutex.t;
}

let create ?(record = true) ?(threadsafe = true) () =
  {
    sinks = [||];
    registry = Metrics.create ();
    record;
    threadsafe;
    mutex = Mutex.create ();
  }

let add_sink t sink =
  Mutex.lock t.mutex;
  t.sinks <- Array.append t.sinks [| sink |];
  Mutex.unlock t.mutex

(* The per-event hot path: no closure allocation (manual unlock instead
   of [Fun.protect]) — with [record = false] and one sink, an emit is
   the lock, one match dispatch, and the sink's O(1) updates. A
   [~threadsafe:false] hub skips the lock entirely: its pair of C stub
   calls is the single largest fixed cost per event, and single-domain
   drivers (the simulator, the service tower) pay it for nothing. *)
let dispatch t ev =
  if t.record then Metrics.record_event t.registry ev;
  let sinks = t.sinks in
  for i = 0 to Array.length sinks - 1 do
    sinks.(i).Sink.emit ev
  done

let emit t ev =
  if not t.threadsafe then dispatch t ev
  else begin
    Mutex.lock t.mutex;
    (try dispatch t ev
     with e ->
       Mutex.unlock t.mutex;
       raise e);
    Mutex.unlock t.mutex
  end

let metrics t = t.registry

let with_metrics t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> f t.registry)

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> Array.iter (fun (s : Sink.t) -> s.Sink.close ()) t.sinks)

let suspect_diff t ~time ~observer ~before ~after =
  if not (Pidset.equal before after) then begin
    Pidset.iter
      (fun subject ->
        if not (Pidset.mem subject before) then
          emit t (Event.make ~time (Event.Suspect_add { observer; subject })))
      after;
    Pidset.iter
      (fun subject ->
        if not (Pidset.mem subject after) then
          emit t (Event.make ~time (Event.Suspect_remove { observer; subject })))
      before
  end

let emit_windows t windows =
  List.iter
    (fun ((x, y), measured) ->
      emit t (Event.make ~time:x Event.Window_open);
      emit t (Event.make ~time:y (Event.Window_close { opened = x; measured })))
    windows
