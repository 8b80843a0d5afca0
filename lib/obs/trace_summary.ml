open Ftss_util

type t = { evs : Event.t array }

let of_events evs = { evs = Array.of_list evs }
let events t = Array.to_list t.evs
let length t = Array.length t.evs

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (of_events (List.rev acc))
          | line ->
            if String.trim line = "" then loop (lineno + 1) acc
            else (
              match Json.of_string line with
              | Error msg -> Error (Printf.sprintf "%s: line %d: %s" path lineno msg)
              | Ok json -> (
                match Event.of_json json with
                | None ->
                  Error (Printf.sprintf "%s: line %d: not an event record" path lineno)
                | Some ev -> loop (lineno + 1) (ev :: acc)))
        in
        loop 1 [])

let kind_counts t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun ev ->
      let k = Event.kind ev in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    t.evs;
  List.filter_map
    (fun (s : Event.spec) -> Option.map (fun c -> (s.name, c)) (Hashtbl.find_opt tbl s.name))
    (Array.to_list Event.kinds)

let suspicion_timeline t =
  let tbl = Hashtbl.create 8 in
  let push observer entry =
    Hashtbl.replace tbl observer
      (entry :: Option.value ~default:[] (Hashtbl.find_opt tbl observer))
  in
  Array.iter
    (fun ev ->
      match ev.Event.body with
      | Event.Suspect_add { observer; subject } ->
        push observer (ev.Event.time, subject, true)
      | Event.Suspect_remove { observer; subject } ->
        push observer (ev.Event.time, subject, false)
      | _ -> ())
    t.evs;
  Hashtbl.fold (fun observer changes acc -> (observer, List.rev changes) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Pid.compare a b)

let windows t =
  Array.to_list t.evs
  |> List.filter_map (fun ev ->
         match ev.Event.body with
         | Event.Window_close { opened; measured } ->
           Some (opened, ev.Event.time, measured)
         | _ -> None)

let measured_stabilization t =
  match windows t with
  | [] -> None
  | ws -> Some (List.fold_left (fun acc (_, _, d) -> max acc d) 0 ws)

let coverage_curve t =
  Array.to_list t.evs
  |> List.filter_map (fun ev ->
         match ev.Event.body with
         | Event.Coverage { execs; corpus; points } -> Some (execs, corpus, points)
         | _ -> None)

let final_coverage t =
  match List.rev (coverage_curve t) with [] -> None | last :: _ -> Some last

(* Bucket the growth curve into at most ten cells by execution count,
   keeping the last sample of each cell — enough shape for a
   terminal-width sparkline of coverage growth. *)
let coverage_buckets t =
  let buckets = 10 in
  match coverage_curve t with
  | [] -> []
  | curve ->
    let max_execs =
      List.fold_left (fun acc (e, _, _) -> max acc e) 1 curve
    in
    let cell e = min (buckets - 1) (e * buckets / (max_execs + 1)) in
    let tbl = Hashtbl.create buckets in
    List.iter (fun (e, _, p) -> Hashtbl.replace tbl (cell e) (e, p)) curve;
    List.init buckets (fun i -> Hashtbl.find_opt tbl i)
    |> List.filter_map Fun.id

(* Totals of the replicated-service pipeline: ops entering the pending
   queues, ops sequenced by total-order broadcast, slots applied to the
   state machines, and recovery episodes. [None] when the trace carries no
   service events at all, so [pp] can omit the section for non-service
   runs. *)
let service_totals t =
  let submitted = ref 0
  and committed_slots = ref 0
  and committed_ops = ref 0
  and applied = ref 0
  and recovered = ref 0
  and seen = ref false in
  Array.iter
    (fun ev ->
      match ev.Event.body with
      | Event.Submit { ops; _ } ->
        seen := true;
        submitted := !submitted + ops
      | Event.Commit { ops; _ } ->
        seen := true;
        incr committed_slots;
        committed_ops := !committed_ops + ops
      | Event.Apply _ ->
        seen := true;
        incr applied
      | Event.Recover _ ->
        seen := true;
        incr recovered
      | _ -> ())
    t.evs;
  if not !seen then None
  else Some (!submitted, !committed_slots, !committed_ops, !applied, !recovered)

let recovery_timeline t =
  Array.to_list t.evs
  |> List.filter_map (fun ev ->
         match ev.Event.body with
         | Event.Recover { pid; slots } -> Some (ev.Event.time, pid, slots)
         | _ -> None)

let blame_matrix t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun ev ->
      match ev.Event.body with
      | Event.Drop { src; dst; blame } -> (
        match Hashtbl.find_opt tbl (src, dst) with
        | Some (count, first_blame) ->
          Hashtbl.replace tbl (src, dst) (count + 1, first_blame)
        | None -> Hashtbl.add tbl (src, dst) (1, blame))
      | _ -> ())
    t.evs;
  Hashtbl.fold (fun link cell acc -> (link, cell) :: acc) tbl []
  |> List.sort (fun ((a, b), _) ((c, d), _) ->
         match Pid.compare a c with 0 -> Pid.compare b d | o -> o)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "events: %d" (length t);
  List.iter
    (fun (k, c) -> Format.fprintf ppf "@,  %-16s %d" k c)
    (kind_counts t);
  (match windows t with
  | [] -> Format.fprintf ppf "@,stable windows: none recorded"
  | ws ->
    Format.fprintf ppf "@,stable windows (measured stabilization d):";
    List.iter
      (fun (x, y, d) -> Format.fprintf ppf "@,  window %d..%d: d=%d" x y d)
      ws;
    (match measured_stabilization t with
    | Some d -> Format.fprintf ppf "@,measured stabilization: %d" d
    | None -> ()));
  (match suspicion_timeline t with
  | [] -> Format.fprintf ppf "@,suspicion timeline: no changes recorded"
  | timeline ->
    Format.fprintf ppf "@,suspicion timeline (+ suspect, - trust):";
    List.iter
      (fun (observer, changes) ->
        Format.fprintf ppf "@,  %a:" Pid.pp observer;
        List.iter
          (fun (time, subject, on) ->
            Format.fprintf ppf " %c%a@@t%d" (if on then '+' else '-') Pid.pp subject
              time)
          changes)
      timeline);
  (match final_coverage t with
  | None -> ()
  | Some (execs, corpus, points) ->
    Format.fprintf ppf
      "@,coverage: %d execs, corpus %d, %d points" execs corpus points;
    (match coverage_buckets t with
    | [] | [ _ ] -> ()
    | cells ->
      Format.fprintf ppf "@,coverage growth (execs: points):";
      List.iter
        (fun (e, p) -> Format.fprintf ppf "@,  %8d: %d" e p)
        cells));
  (match service_totals t with
  | None -> ()
  | Some (submitted, slots, committed, applied, recovered) ->
    Format.fprintf ppf
      "@,service: %d ops submitted, %d committed over %d slots, %d applies"
      submitted committed slots applied;
    if recovered = 0 then Format.fprintf ppf "@,recoveries: none recorded"
    else begin
      Format.fprintf ppf "@,recovery timeline (replica: slots repaired):";
      List.iter
        (fun (time, pid, slots) ->
          Format.fprintf ppf "@,  %a: %d slots@@t%d" Pid.pp pid slots time)
        (recovery_timeline t)
    end);
  (match blame_matrix t with
  | [] -> Format.fprintf ppf "@,omissions: none recorded"
  | matrix ->
    Format.fprintf ppf "@,omission blame matrix (src -> dst: count, blamed endpoint):";
    List.iter
      (fun ((src, dst), (count, blame)) ->
        Format.fprintf ppf "@,  %a -> %a: %d%s" Pid.pp src Pid.pp dst count
          (match blame with
          | Some b when Pid.equal b src -> " (blame sender)"
          | Some b when Pid.equal b dst -> " (blame receiver)"
          | Some b -> Printf.sprintf " (blame p%d)" b
          | None -> ""))
      matrix);
  Format.fprintf ppf "@]"
