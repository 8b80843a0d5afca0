module Event = Ftss_obs.Event
module Json = Ftss_obs.Json
module Prov = Ftss_prov.Prov

(* Flight-recorder snapshots: on alarm, dump the monitor's event ring
   as JSON Lines and render the causal cone of the triggering event as
   Graphviz. The ring is indexed with the provenance engine on demand —
   snapshotting is the cold path; the hot path only pushed into a
   preallocated ring. *)

type snapshot = {
  jsonl_path : string;
  dot_path : string;
  events : int; (* ring events written *)
  cone : int; (* cone size, 0 when the target was not found *)
  target_found : bool;
}

let write_jsonl path events =
  let oc = open_out path in
  List.iter
    (fun ev ->
      output_string oc (Json.to_string (Event.to_json ev));
      output_char oc '\n')
    events;
  close_out oc

(* The alarm's event is the last ring entry equal to it ([None] once
   evicted): the ring decodes fresh values, so identity cannot find it. *)
let last_index_of ev events =
  let rec go i found = function
    | [] -> found
    | e :: rest -> go (i + 1) (if e = ev then Some i else found) rest
  in
  go 0 None events

let snapshot t (alarm : Monitor.alarm) ~prefix =
  let events = Monitor.ring_events t in
  let jsonl_path = prefix ^ ".jsonl" in
  let dot_path = prefix ^ ".dot" in
  write_jsonl jsonl_path events;
  let prov = Prov.of_events events in
  let targets, target_found =
    match last_index_of alarm.Monitor.event events with
    | Some id -> ([ id ], true)
    | None -> ([], false)
  in
  let cone_ids = if targets = [] then [] else Prov.cone prov targets in
  let dot =
    if cone_ids = [] then "digraph flight { label=\"target not in ring\"; }\n"
    else Prov.to_dot ~targets prov cone_ids
  in
  let oc = open_out dot_path in
  output_string oc dot;
  close_out oc;
  {
    jsonl_path;
    dot_path;
    events = List.length events;
    cone = List.length cone_ids;
    target_found;
  }

let pp_snapshot ppf s =
  Format.fprintf ppf
    "flight recorder: %d events -> %s; cone of triggering event: %d nodes -> %s%s"
    s.events s.jsonl_path s.cone s.dot_path
    (if s.target_found then "" else " (target evicted from ring)")
