open Ftss_util
open Ftss_obs

type t = {
  evs : Event.t array;
  n : int;
  parents : int list array;
  loc : Pid.t option array;
  by_pid : int list array; (* ascending event ids per located process *)
  suppressed : (int, int) Hashtbl.t; (* drop id -> suppressed send id *)
}

let location (body : Event.body) =
  match body with
  | Event.Send { src; _ } -> Some src
  | Event.Deliver { dst; _ } -> Some dst
  | Event.Crash { pid } | Event.Corrupt { pid } | Event.Decide { pid; _ }
  | Event.Submit { pid; _ } | Event.Commit { pid; _ } | Event.Apply { pid; _ }
  | Event.Recover { pid; _ } ->
    Some pid
  | Event.Suspect_add { observer; _ } | Event.Suspect_remove { observer; _ } ->
    Some observer
  | Event.Drop _ | Event.Round_begin | Event.Round_end | Event.Window_open
  | Event.Window_close _ | Event.Case_start _ | Event.Case_verdict _
  | Event.Coverage _ ->
    None

(* The universe is whatever the trace mentions: every endpoint of every
   event. *)
let infer_n evs =
  Array.fold_left
    (fun acc (ev : Event.t) ->
      match ev.Event.body with
      | Event.Send { src; dst } ->
        max acc (1 + max src (Option.value ~default:(-1) dst))
      | Event.Deliver { src; dst } -> max acc (1 + max src dst)
      | Event.Drop { src; dst; blame } ->
        max acc (1 + max (max src dst) (Option.value ~default:(-1) blame))
      | Event.Crash { pid } | Event.Corrupt { pid } | Event.Decide { pid; _ }
      | Event.Submit { pid; _ } | Event.Commit { pid; _ } | Event.Apply { pid; _ }
      | Event.Recover { pid; _ } ->
        max acc (1 + pid)
      | Event.Suspect_add { observer; subject }
      | Event.Suspect_remove { observer; subject } ->
        max acc (1 + max observer subject)
      | Event.Round_begin | Event.Round_end | Event.Window_open
      | Event.Window_close _ | Event.Case_start _ | Event.Case_verdict _
      | Event.Coverage _ ->
        acc)
    0 evs

let of_events list =
  let evs = Array.of_list list in
  let len = Array.length evs in
  let n = infer_n evs in
  let loc = Array.map (fun (ev : Event.t) -> location ev.Event.body) evs in
  let parents = Array.make len [] in
  let by_pid_rev = Array.make (max 1 n) [] in
  let suppressed = Hashtbl.create 16 in
  let last = Array.make (max 1 n) (-1) in
  let channels : (int * int, int Queue.t) Hashtbl.t = Hashtbl.create 64 in
  let push ~src ~dst i =
    let q =
      match Hashtbl.find_opt channels (src, dst) with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add channels (src, dst) q;
        q
    in
    Queue.push i q
  in
  let pop ~src ~dst =
    match Hashtbl.find_opt channels (src, dst) with
    | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
    | _ -> None
  in
  let program_parent p = if last.(p) >= 0 then [ last.(p) ] else [] in
  let advance p i =
    by_pid_rev.(p) <- i :: by_pid_rev.(p);
    last.(p) <- i
  in
  Array.iteri
    (fun i (ev : Event.t) ->
      match ev.Event.body with
      | Event.Send { src; dst } ->
        parents.(i) <- program_parent src;
        advance src i;
        (match dst with
        | Some d -> push ~src ~dst:d i
        | None ->
          (* Synchronous broadcast: one in-flight copy per link. *)
          for d = 0 to n - 1 do
            push ~src ~dst:d i
          done)
      | Event.Deliver { src; dst } ->
        let ps = program_parent dst in
        let ps =
          match pop ~src ~dst with
          | Some s -> s :: ps
          | None -> ps (* spurious/unpaired message: no causal ancestor *)
        in
        parents.(i) <- ps;
        advance dst i
      | Event.Drop { src; dst; _ } ->
        (* The suppressed send is consumed and linked so blame can be
           chained, but the drop advances nobody's lane: an omitted
           message contributes no causality, so no located event can ever
           reach it — dropped messages are pruned from every cone by
           construction. *)
        (match pop ~src ~dst with
        | Some s ->
          parents.(i) <- [ s ];
          Hashtbl.add suppressed i s
        | None -> ())
      | Event.Crash _ | Event.Corrupt _ | Event.Decide _ | Event.Suspect_add _
      | Event.Suspect_remove _ | Event.Submit _ | Event.Commit _ | Event.Apply _
      | Event.Recover _ -> (
        match loc.(i) with
        | Some p ->
          parents.(i) <- program_parent p;
          advance p i
        | None -> ())
      | Event.Round_begin | Event.Round_end | Event.Window_open
      | Event.Window_close _ | Event.Case_start _ | Event.Case_verdict _
      | Event.Coverage _ ->
        (* Join node: the event summarizes the whole run so far, so it
           descends from everyone's latest event — but advances no lane,
           so located cones never pass through it. *)
        let ps = ref [] in
        for p = n - 1 downto 0 do
          if last.(p) >= 0 then ps := last.(p) :: !ps
        done;
        parents.(i) <- !ps)
    evs;
  let by_pid = Array.map List.rev by_pid_rev in
  { evs; n; parents; loc; by_pid; suppressed }

let load path =
  Result.map
    (fun t -> of_events (Trace_summary.events t))
    (Trace_summary.load path)

let length t = Array.length t.evs
let parents t i = t.parents.(i)
let located t i = t.loc.(i)

(* Locate a captured event in the indexed trace: physical equality first
   (the common case — an alarm handed back an event it pulled off a live
   ring that was then indexed wholesale), falling back to the last
   structurally equal event. Only called on demand (a flight-recorder
   snapshot), so the scan is fine. *)
let find_event t ev =
  let len = Array.length t.evs in
  let rec phys i = if i < 0 then None else if t.evs.(i) == ev then Some i else phys (i - 1) in
  match phys (len - 1) with
  | Some _ as r -> r
  | None ->
    let rec structural i =
      if i < 0 then None else if t.evs.(i) = ev then Some i else structural (i - 1)
    in
    structural (len - 1)

let cone t targets =
  let len = Array.length t.evs in
  let seen = Array.make (max 1 len) false in
  let rec visit i =
    if i >= 0 && i < len && not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit t.parents.(i)
    end
  in
  List.iter visit targets;
  let acc = ref [] in
  for i = len - 1 downto 0 do
    if seen.(i) then acc := i :: !acc
  done;
  !acc

let last_at t ?(upto = max_int) p =
  if p < 0 || p >= Array.length t.by_pid then None
  else
    List.fold_left
      (fun acc i -> if t.evs.(i).Event.time <= upto then Some i else acc)
      None t.by_pid.(p)

let cone_pids t ids =
  List.fold_left
    (fun acc i -> match t.loc.(i) with Some p -> Pidset.add p acc | None -> acc)
    Pidset.empty ids

let knows t ~round p =
  match last_at t ~upto:round p with
  | None -> Pidset.singleton p
  | Some i -> Pidset.add p (cone_pids t (cone t [ i ]))

let happened_before t ~upto p q = Pidset.mem p (knows t ~round:upto q)

let crashed t =
  Array.fold_left
    (fun acc (ev : Event.t) ->
      match ev.Event.body with
      | Event.Crash { pid } -> Pidset.add pid acc
      | _ -> acc)
    Pidset.empty t.evs

let inferred_correct t = Pidset.diff (Pidset.full t.n) (crashed t)

let coterie t ~round ~correct =
  if Pidset.is_empty correct then Pidset.full t.n
  else
    Pidset.fold
      (fun q acc -> Pidset.inter acc (knows t ~round q))
      correct (Pidset.full t.n)

let max_time t =
  Array.fold_left (fun acc (ev : Event.t) -> max acc ev.Event.time) 0 t.evs

let growth t ~correct =
  let upto = max_time t in
  let rec collect r prev acc =
    if r > upto then List.rev acc
    else
      let c = coterie t ~round:r ~correct in
      let grew = Pidset.diff c prev in
      let acc = if Pidset.is_empty grew then acc else (r, grew) :: acc in
      collect (r + 1) c acc
  in
  collect 1 (coterie t ~round:0 ~correct) []

(* The deliver events of round [round] that first carry [entered]'s
   causal past to an observer that did not yet know it — the
   destabilizing edges of a coterie-growth round. Only the message edge
   counts as carrying: the deliver node's own cone also covers the
   destination's program-order past, which would wrongly credit a later
   same-round deliver to a destination that just learned [entered] from
   someone else. *)
let connecting_delivers t ~round ~entered ~correct =
  let message_parent i =
    List.find_opt
      (fun j ->
        match t.evs.(j).Event.body with Event.Send _ -> true | _ -> false)
      t.parents.(i)
  in
  let result = ref [] in
  Array.iteri
    (fun i (ev : Event.t) ->
      if ev.Event.time = round then
        match ev.Event.body with
        | Event.Deliver { dst; _ }
          when Pidset.mem dst correct
               && not (happened_before t ~upto:(round - 1) entered dst)
               && (match message_parent i with
                  | Some s -> Pidset.mem entered (cone_pids t (cone t [ s ]))
                  | None -> false) ->
          result := i :: !result
        | _ -> ())
    t.evs;
  List.rev !result

let pruned_drops t =
  let acc = ref [] in
  Array.iteri
    (fun i (ev : Event.t) ->
      match ev.Event.body with
      | Event.Drop _ -> acc := (i, Hashtbl.find_opt t.suppressed i) :: !acc
      | _ -> ())
    t.evs;
  List.rev !acc

(* --- target selection --- *)

type target =
  | Last_decide
  | Suspect of Pid.t * Pid.t
  | Last_window_close
  | Id of int

let parse_target s =
  match s with
  | "last-decide" -> Ok Last_decide
  | "last-window" -> Ok Last_window_close
  | _ -> (
    match int_of_string_opt s with
    | Some i when i >= 0 -> Ok (Id i)
    | Some _ -> Error "event id must be non-negative"
    | None -> (
      match String.index_opt s ':' with
      | Some k when String.sub s 0 k = "suspect" -> (
        let rest = String.sub s (k + 1) (String.length s - k - 1) in
        match String.split_on_char ',' rest with
        | [ a; b ] -> (
          match (int_of_string_opt (String.trim a), int_of_string_opt (String.trim b))
          with
          | Some p, Some q -> Ok (Suspect (p, q))
          | _ -> Error (Printf.sprintf "bad suspect selector %S" s))
        | _ -> Error (Printf.sprintf "suspect selector needs two pids: %S" s))
      | _ ->
        Error
          (Printf.sprintf
             "unknown event selector %S (want <id>, last-decide, last-window, or \
              suspect:<p>,<q>)"
             s)))

let last_matching t f =
  let found = ref None in
  Array.iteri (fun i (ev : Event.t) -> if f ev then found := Some i) t.evs;
  !found

let resolve t target =
  match target with
  | Last_decide -> (
    match
      last_matching t (fun ev ->
          match ev.Event.body with Event.Decide _ -> true | _ -> false)
    with
    | Some i -> Ok [ i ]
    | None -> Error "trace has no decide event")
  | Last_window_close -> (
    match
      last_matching t (fun ev ->
          match ev.Event.body with Event.Window_close _ -> true | _ -> false)
    with
    | Some i -> Ok [ i ]
    | None -> Error "trace has no window_close event")
  | Suspect (p, q) -> (
    match
      last_matching t (fun ev ->
          match ev.Event.body with
          | Event.Suspect_add { observer; subject }
          | Event.Suspect_remove { observer; subject } ->
            Pid.equal observer p && Pid.equal subject q
          | _ -> false)
    with
    | Some i -> Ok [ i ]
    | None ->
      Error (Printf.sprintf "trace has no suspicion change of p%d about p%d" p q))
  | Id i ->
    if i >= 0 && i < length t then Ok [ i ]
    else Error (Printf.sprintf "no event with id %d" i)

(* --- rendering --- *)

let node_label t i =
  Format.asprintf "%d: %a" i Event.pp t.evs.(i)

let dot_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot ?(targets = []) t ids =
  let buf = Buffer.create 4096 in
  let in_set = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace in_set i ()) ids;
  Buffer.add_string buf "digraph provenance {\n";
  Buffer.add_string buf "  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  (* One cluster (lane) per process that owns events in the set. *)
  let lanes = Array.make (max 1 t.n) [] in
  let global = ref [] in
  List.iter
    (fun i ->
      match t.loc.(i) with
      | Some p -> lanes.(p) <- i :: lanes.(p)
      | None -> global := i :: !global)
    ids;
  Array.iteri
    (fun p evs ->
      if evs <> [] then begin
        Buffer.add_string buf
          (Printf.sprintf "  subgraph cluster_p%d {\n    label=\"p%d\";\n" p p);
        List.iter
          (fun i ->
            Buffer.add_string buf
              (Printf.sprintf "    e%d [label=\"%s\"%s];\n" i
                 (dot_escape (node_label t i))
                 (if List.mem i targets then
                    ", style=filled, fillcolor=gold, penwidth=2"
                  else "")))
          (List.rev evs);
        Buffer.add_string buf "  }\n"
      end)
    lanes;
  List.iter
    (fun i ->
      let is_drop =
        match t.evs.(i).Event.body with Event.Drop _ -> true | _ -> false
      in
      Buffer.add_string buf
        (Printf.sprintf "  e%d [label=\"%s\"%s];\n" i
           (dot_escape (node_label t i))
           (if is_drop then ", color=red, fontcolor=red"
            else if List.mem i targets then
              ", style=filled, fillcolor=gold, penwidth=2"
            else ", style=dashed")))
    (List.rev !global);
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          if Hashtbl.mem in_set j then
            let cross =
              (* message edges cross lanes; program-order edges stay inside *)
              match (t.loc.(j), t.loc.(i)) with
              | Some a, Some b -> not (Pid.equal a b)
              | _ -> true
            in
            Buffer.add_string buf
              (Printf.sprintf "  e%d -> e%d%s;\n" j i
                 (if cross then " [color=blue]" else "")))
        t.parents.(i))
    ids;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_explain ppf (t, targets) =
  let ids = cone t targets in
  let pids = cone_pids t ids in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "target%s:" (if List.length targets = 1 then "" else "s");
  List.iter
    (fun i -> Format.fprintf ppf "@,  %s" (node_label t i))
    targets;
  Format.fprintf ppf "@,cone: %d of %d events, touching %d process%s" (List.length ids)
    (length t) (Pidset.cardinal pids)
    (if Pidset.cardinal pids = 1 then "" else "es");
  (* Per-process contribution, ascending. *)
  Pidset.iter
    (fun p ->
      let mine = List.filter (fun i -> t.loc.(i) = Some p) ids in
      match mine with
      | [] -> ()
      | _ ->
        let first = List.hd mine and last = List.nth mine (List.length mine - 1) in
        Format.fprintf ppf "@,  p%d: %d events (t=%d..%d)" p (List.length mine)
          t.evs.(first).Event.time t.evs.(last).Event.time)
    pids;
  (* Omissions pruned from the cone, with blame chains. *)
  let drops = pruned_drops t in
  if drops <> [] then begin
    (* A long adversarial run can contain thousands of omissions; the report
       shows the first few and summarizes the rest. *)
    let shown = 20 in
    Format.fprintf ppf "@,omitted messages (%d, pruned from every cone):"
      (List.length drops);
    List.iteri
      (fun k (i, sup) ->
        if k < shown then
          match t.evs.(i).Event.body with
          | Event.Drop { src; dst; blame } ->
            Format.fprintf ppf "@,  t=%d %d->%d dropped%s%s" t.evs.(i).Event.time
              src dst
              (match sup with
              | Some s -> Printf.sprintf " (suppressed send %d)" s
              | None -> "")
              (match blame with
              | Some b -> Printf.sprintf ", blamed on declared-faulty p%d" b
              | None -> "")
          | _ -> ())
      drops;
    if List.length drops > shown then
      Format.fprintf ppf "@,  ... and %d more" (List.length drops - shown)
  end;
  (* Destabilizing events: rounds where the coterie of the prefix grew. *)
  let correct = inferred_correct t in
  (match growth t ~correct with
  | [] -> ()
  | gs ->
    Format.fprintf ppf "@,destabilizing events (coterie growth):";
    List.iter
      (fun (r, entered) ->
        Pidset.iter
          (fun p ->
            Format.fprintf ppf "@,  t=%d: p%d entered the coterie" r p;
            match connecting_delivers t ~round:r ~entered:p ~correct with
            | [] -> ()
            | ds ->
              List.iter
                (fun i ->
                  if List.mem i ids then
                    Format.fprintf ppf "@,    via %s (in cone)" (node_label t i)
                  else Format.fprintf ppf "@,    via %s" (node_label t i))
                ds)
          entered)
      gs);
  Format.fprintf ppf "@]"
