type snapshot = {
  experiment : string option;
  schema : int;
  gauges : (string * float) list;
}

let load_json json =
  let experiment =
    Option.bind (Json.member "experiment" json) (fun j ->
        match j with Json.String s -> Some s | _ -> None)
  in
  let schema =
    match Option.bind (Json.member "schema" json) Json.to_int_opt with
    | Some s -> s
    | None -> 1
  in
  (* Schema 2 wraps the metrics snapshot in an envelope; schema 1 (the
     bare [Metrics.to_json] form) has "gauges" at the top level too, so
     one lookup serves both. *)
  let gauges =
    match Json.member "gauges" json with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (name, v) -> Option.map (fun f -> (name, f)) (Json.to_float_opt v))
        fields
    | _ -> []
  in
  { experiment; schema; gauges }

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        match Json.of_string s with
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
        | Ok json -> Ok (load_json json))

type direction = Lower_better | Higher_better | Informational

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl > 0 && go 0

(* Gauge names carry their unit: throughputs end in "...per_sec...",
   latencies and durations mention "ns_per_call" / "elapsed" / "seconds".
   Anything else (counts, sizes) is compared but never flagged. *)
let direction name =
  if contains ~needle:"per_sec" name then Higher_better
  else if
    contains ~needle:"ns_per_call" name
    || contains ~needle:"elapsed" name
    || contains ~needle:"seconds" name
    || contains ~needle:"_ns" name
  then Lower_better
  else Informational

type entry = {
  name : string;
  old_value : float;
  new_value : float;
  dir : direction;
  worse_pct : float;
      (* how much worse NEW is than OLD along [dir]; <= 0 means no worse *)
}

type report = {
  old_experiment : string option;
  new_experiment : string option;
  entries : entry list;
  only_old : string list;
  only_new : string list;
}

let worse_pct ~dir ~old_value ~new_value =
  if
    Float.is_nan old_value || Float.is_nan new_value
    || old_value <= 0. || new_value <= 0.
  then 0.
  else
    match dir with
    | Lower_better -> ((new_value /. old_value) -. 1.) *. 100.
    | Higher_better -> ((old_value /. new_value) -. 1.) *. 100.
    | Informational -> 0.

let diff ~old_:o ~new_:n =
  let entries =
    List.filter_map
      (fun (name, old_value) ->
        match List.assoc_opt name n.gauges with
        | None -> None
        | Some new_value ->
          let dir = direction name in
          Some
            { name; old_value; new_value; dir;
              worse_pct = worse_pct ~dir ~old_value ~new_value })
      o.gauges
  in
  let only_old =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name n.gauges then None else Some name)
      o.gauges
  in
  let only_new =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name o.gauges then None else Some name)
      n.gauges
  in
  {
    old_experiment = o.experiment;
    new_experiment = n.experiment;
    entries;
    only_old;
    only_new;
  }

let regressions report ~max_regress =
  List.filter
    (fun e -> e.dir <> Informational && e.worse_pct > max_regress)
    report.entries

let pp ?(max_regress = infinity) ppf report =
  Format.fprintf ppf "@[<v>";
  (match (report.old_experiment, report.new_experiment) with
  | Some a, Some b when a <> b ->
    Format.fprintf ppf "warning: comparing experiment %S against %S@," a b
  | _ -> ());
  Format.fprintf ppf "%-52s %14s %14s %9s@," "gauge" "old" "new" "worse%";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-52s %14.4g %14.4g %8.1f%%%s@," e.name e.old_value
        e.new_value e.worse_pct
        (if e.dir <> Informational && e.worse_pct > max_regress then "  REGRESSION"
         else if e.dir = Informational then "  (info)"
         else ""))
    report.entries;
  List.iter
    (fun n -> Format.fprintf ppf "%-52s only in OLD@," n)
    report.only_old;
  List.iter
    (fun n -> Format.fprintf ppf "%-52s only in NEW@," n)
    report.only_new;
  Format.fprintf ppf "@]"
