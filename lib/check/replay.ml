module S = Schedule_enum
module J = Ftss_obs.Json

type t = { property : string; inject : string; case : S.t }

let ( let* ) = Result.bind

(* --- writing --- *)

let json_of_behavior (pid, behavior) =
  let entry kind fields = J.Obj (("kind", J.String kind) :: ("pid", J.Int pid) :: fields) in
  let span a b = [ ("first", J.Int a); ("last", J.Int b) ] in
  match behavior with
  | S.Crash r -> entry "crash" [ ("round", J.Int r) ]
  | S.Mute (a, b) -> entry "mute" (span a b)
  | S.Deaf (a, b) -> entry "deaf" (span a b)
  | S.Isolate (a, b) -> entry "isolate" (span a b)
  | S.Send_drop (r, dst) -> entry "send-drop" [ ("round", J.Int r); ("dst", J.Int dst) ]
  | S.Recv_drop (r, src) -> entry "recv-drop" [ ("round", J.Int r); ("src", J.Int src) ]

let json_of_corruption = function
  | S.Clean -> J.String "clean"
  | S.Zero -> J.String "zero"
  | S.Max -> J.String "max"
  | S.Parked k -> J.Obj [ ("parked", J.Int k) ]
  | S.Distinct -> J.String "distinct"

let to_string t =
  let { S.n; rounds; f; intervals; drops } = t.case.S.params in
  J.to_string
    (J.Obj
       [
         ("format", J.String "ftss-counterexample");
         ("version", J.Int 2);
         ("property", J.String t.property);
         ("inject", J.String t.inject);
         ( "params",
           J.Obj
             [
               ("n", J.Int n);
               ("rounds", J.Int rounds);
               ("f", J.Int f);
               ("intervals", J.Bool intervals);
               ("drops", J.Bool drops);
             ] );
         ("corruption", json_of_corruption t.case.S.corruption);
         ("schedule", J.List (List.map json_of_behavior t.case.S.behaviors));
       ])
  ^ "\n"

(* --- reading --- *)

let behavior_of_json j =
  let int key = J.get key J.to_int_opt j in
  let* kind = J.get "kind" J.to_string_opt j in
  let* pid = int "pid" in
  let span mk =
    let* a = int "first" in
    let* b = int "last" in
    Ok (mk a b)
  in
  let* b =
    match kind with
    | "crash" -> Result.map (fun r -> S.Crash r) (int "round")
    | "mute" -> span (fun a b -> S.Mute (a, b))
    | "deaf" -> span (fun a b -> S.Deaf (a, b))
    | "isolate" -> span (fun a b -> S.Isolate (a, b))
    | "send-drop" ->
      let* r = int "round" in
      Result.map (fun dst -> S.Send_drop (r, dst)) (int "dst")
    | "recv-drop" ->
      let* r = int "round" in
      Result.map (fun src -> S.Recv_drop (r, src)) (int "src")
    | _ -> Error (Printf.sprintf "unknown behaviour kind %S" kind)
  in
  Ok (pid, b)

let corruption_of_json = function
  | J.String "clean" -> Some S.Clean
  | J.String "zero" -> Some S.Zero
  | J.String "max" -> Some S.Max
  | J.String "distinct" -> Some S.Distinct
  | J.Obj [ ("parked", J.Int k) ] -> Some (S.Parked k)
  | _ -> None

let check_case (case : S.t) =
  let { S.n; rounds; f; _ } = case.S.params in
  let* () =
    try
      S.validate case.S.params;
      Ok ()
    with Invalid_argument m -> Error m
  in
  let valid_round r = 1 <= r && r <= rounds in
  let check_behavior (pid, b) =
    if not (Ftss_util.Pid.is_valid ~n pid) then
      Error (Printf.sprintf "pid %d out of range for n=%d" pid n)
    else
      let ok =
        match b with
        | S.Crash r -> valid_round r
        | S.Mute (a, b) | S.Deaf (a, b) | S.Isolate (a, b) ->
          valid_round a && valid_round b && a <= b
        | S.Send_drop (r, other) | S.Recv_drop (r, other) ->
          valid_round r && Ftss_util.Pid.is_valid ~n other && other <> pid
      in
      if ok then Ok () else Error "behaviour has out-of-range rounds or pids"
  in
  let rec check_all = function
    | [] -> Ok ()
    | b :: rest ->
      let* () = check_behavior b in
      check_all rest
  in
  let* () = check_all case.S.behaviors in
  let pids = List.map fst case.S.behaviors in
  if List.length (List.sort_uniq compare pids) <> List.length pids then
    Error "schedule assigns two behaviours to one pid"
  else if List.length pids > f then
    Error (Printf.sprintf "schedule touches %d processes, budget f=%d" (List.length pids) f)
  else Ok case

let of_json json =
  let* format = J.get "format" J.to_string_opt json in
  let* version = J.get "version" J.to_int_opt json in
  if format <> "ftss-counterexample" then
    Error (Printf.sprintf "format %S is not ftss-counterexample" format)
  else if version <> 2 then Error (Printf.sprintf "unsupported version %d" version)
  else
    let* property = J.get "property" J.to_string_opt json in
    let* inject = J.get "inject" J.to_string_opt json in
    let* params = J.get "params" Option.some json in
    let int key = J.get key J.to_int_opt params in
    let bool key = J.get key J.to_bool_opt params in
    let* n = int "n" in
    let* rounds = int "rounds" in
    let* f = int "f" in
    let* intervals = bool "intervals" in
    let* drops = bool "drops" in
    let* corruption = J.get "corruption" corruption_of_json json in
    let* schedule = J.get "schedule" J.to_list_opt json in
    let* behaviors =
      List.fold_right
        (fun j acc ->
          let* b = behavior_of_json j in
          let* bs = acc in
          Ok (b :: bs))
        schedule (Ok [])
    in
    let* case =
      check_case { S.params = { S.n; rounds; f; intervals; drops }; behaviors; corruption }
    in
    let* _ = Property.find ~name:property ~inject in
    Ok { property; inject; case }

let save path t = Out_channel.with_open_bin path (fun oc -> output_string oc (to_string t))

(* Version-1 files were S-expressions. No reader for them is kept, but
   one gets an error that says what it is, not a JSON syntax error. *)
let legacy path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> String.starts_with ~prefix:"(" (String.trim s)
  | exception Sys_error _ -> false

let load path =
  match J.load path with
  | Ok json -> Result.map_error (Printf.sprintf "%s: %s" path) (of_json json)
  | Error _ when legacy path ->
    Error
      (Printf.sprintf
         "%s: a version-1 S-expression counterexample, a format no longer read; \
          re-run `ftss check --out` to write it as JSON"
         path)
  | Error _ as e -> e

let replay ?obs t =
  let* property = Property.find ~name:t.property ~inject:t.inject in
  Ok (Lazy.force (property.Property.run ?obs t.case).Property.verdict)
