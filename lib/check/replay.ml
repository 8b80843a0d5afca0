module S = Schedule_enum

type t = { property : string; inject : string; case : S.t }

(* --- a minimal S-expression layer, shared with ftss_fuzz's corpus files --- *)

module Sexp = struct
  type t = Atom of string | List of t list

  let rec pp ppf = function
    | Atom a -> Format.pp_print_string ppf a
    | List xs ->
      Format.fprintf ppf "(@[<hv>";
      List.iteri
        (fun i x ->
          if i > 0 then Format.fprintf ppf "@ ";
          pp ppf x)
        xs;
      Format.fprintf ppf "@])"

  let parse (s : string) : (t, string) result =
  let len = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some ';' ->
      (* comment to end of line *)
      while peek () <> None && peek () <> Some '\n' do
        advance ()
      done;
      skip_ws ()
    | _ -> ()
  in
  let atom () =
    let start = !pos in
    let is_atom_char = function
      | '(' | ')' | ' ' | '\t' | '\n' | '\r' | ';' -> false
      | _ -> true
    in
    while (match peek () with Some c -> is_atom_char c | None -> false) do
      advance ()
    done;
    String.sub s start (!pos - start)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> Error "unexpected end of input"
    | Some '(' ->
      advance ();
      let rec items acc =
        skip_ws ();
        match peek () with
        | Some ')' ->
          advance ();
          Ok (List (List.rev acc))
        | None -> Error "unclosed parenthesis"
        | Some _ -> (
          match value () with Ok v -> items (v :: acc) | Error _ as e -> e)
      in
      items []
    | Some ')' -> Error "unexpected ')'"
    | Some _ ->
      let a = atom () in
      if a = "" then Error "empty atom" else Ok (Atom a)
  in
  match value () with
    | Error _ as e -> e
    | Ok v ->
      skip_ws ();
      if !pos = len then Ok v else Error "trailing input after the document"

  (* --- clause helpers: [(label value ...)] lists --- *)

  let ( let* ) = Result.bind
  let sexp_int label i = List [ Atom label; Atom (string_of_int i) ]
  let sexp_bool label b = List [ Atom label; Atom (string_of_bool b) ]

  let field name = function
    | List (Atom tag :: rest) when tag = name -> Some rest
    | _ -> None

  let find_field name items =
    match List.find_map (field name) items with
    | Some rest -> Ok rest
    | None -> Error (Printf.sprintf "missing (%s ...) clause" name)

  let as_int label = function
    | Atom v -> (
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "(%s %s): not an integer" label v))
    | List _ -> Error (Printf.sprintf "(%s ...): expected an integer atom" label)

  let int_field name items =
    let* rest = find_field name items in
    match rest with
    | [ x ] -> as_int name x
    | _ -> Error (Printf.sprintf "(%s ...): expected a single integer" name)

  let bool_field name items =
    let* rest = find_field name items in
    match rest with
    | [ Atom v ] -> (
      match bool_of_string_opt v with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "(%s %s): not a boolean" name v))
    | _ -> Error (Printf.sprintf "(%s ...): expected a single boolean" name)

  let rec collect f = function
    | [] -> Ok []
    | x :: rest ->
      let* v = f x in
      let* vs = collect f rest in
      Ok (v :: vs)
end

open Sexp

let pp_sexp = Sexp.pp
let parse_sexp = Sexp.parse

(* --- writing --- *)

let sexp_of_behavior (pid, behavior) =
  match behavior with
  | S.Crash r -> List [ Atom "crash"; sexp_int "pid" pid; sexp_int "round" r ]
  | S.Mute (a, b) ->
    List [ Atom "mute"; sexp_int "pid" pid; sexp_int "first" a; sexp_int "last" b ]
  | S.Deaf (a, b) ->
    List [ Atom "deaf"; sexp_int "pid" pid; sexp_int "first" a; sexp_int "last" b ]
  | S.Isolate (a, b) ->
    List [ Atom "isolate"; sexp_int "pid" pid; sexp_int "first" a; sexp_int "last" b ]
  | S.Send_drop (r, dst) ->
    List [ Atom "send-drop"; sexp_int "pid" pid; sexp_int "round" r; sexp_int "dst" dst ]
  | S.Recv_drop (r, src) ->
    List [ Atom "recv-drop"; sexp_int "pid" pid; sexp_int "round" r; sexp_int "src" src ]

let sexp_of_corruption = function
  | S.Clean -> Atom "clean"
  | S.Zero -> Atom "zero"
  | S.Max -> Atom "max"
  | S.Parked k -> List [ Atom "parked"; Atom (string_of_int k) ]
  | S.Distinct -> Atom "distinct"

let to_sexp t =
  let { S.n; rounds; f; intervals; drops } = t.case.S.params in
  List
    [
      Atom "ftss-counterexample";
      sexp_int "version" 1;
      List [ Atom "property"; Atom t.property ];
      List [ Atom "inject"; Atom t.inject ];
      List
        [
          Atom "params";
          sexp_int "n" n;
          sexp_int "rounds" rounds;
          sexp_int "f" f;
          sexp_bool "intervals" intervals;
          sexp_bool "drops" drops;
        ];
      List [ Atom "corruption"; sexp_of_corruption t.case.S.corruption ];
      List (Atom "schedule" :: List.map sexp_of_behavior t.case.S.behaviors);
    ]

let to_string t = Format.asprintf "%a@." pp_sexp (to_sexp t)

(* --- reading --- *)

let ( let* ) = Result.bind

let as_atom label = function
  | [ Atom v ] -> Ok v
  | _ -> Error (Printf.sprintf "(%s ...): expected a single atom" label)

let behavior_of_sexp = function
  | List (Atom kind :: fields) -> (
    let* pid = int_field "pid" fields in
    match kind with
    | "crash" ->
      let* r = int_field "round" fields in
      Ok (pid, S.Crash r)
    | "mute" | "deaf" | "isolate" ->
      let* a = int_field "first" fields in
      let* b = int_field "last" fields in
      Ok
        ( pid,
          match kind with
          | "mute" -> S.Mute (a, b)
          | "deaf" -> S.Deaf (a, b)
          | _ -> S.Isolate (a, b) )
    | "send-drop" ->
      let* r = int_field "round" fields in
      let* dst = int_field "dst" fields in
      Ok (pid, S.Send_drop (r, dst))
    | "recv-drop" ->
      let* r = int_field "round" fields in
      let* src = int_field "src" fields in
      Ok (pid, S.Recv_drop (r, src))
    | _ -> Error (Printf.sprintf "unknown behaviour kind %s" kind))
  | _ -> Error "malformed schedule entry"

let corruption_of_sexp = function
  | [ Atom "clean" ] -> Ok S.Clean
  | [ Atom "zero" ] -> Ok S.Zero
  | [ Atom "max" ] -> Ok S.Max
  | [ Atom "distinct" ] -> Ok S.Distinct
  | [ List [ Atom "parked"; Atom k ] ] -> (
    match int_of_string_opt k with
    | Some k -> Ok (S.Parked k)
    | None -> Error "(parked ...): not an integer")
  | _ -> Error "malformed (corruption ...) clause"

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

let of_string s =
  let* sexp = parse_sexp s in
  match sexp with
  | List (Atom "ftss-counterexample" :: items) ->
    let* version = int_field "version" items in
    if version <> 1 then Error (Printf.sprintf "unsupported version %d" version)
    else
      let* property =
        let* rest = find_field "property" items in
        as_atom "property" rest
      in
      let* inject =
        let* rest = find_field "inject" items in
        as_atom "inject" rest
      in
      let* param_fields = find_field "params" items in
      let* n = int_field "n" param_fields in
      let* rounds = int_field "rounds" param_fields in
      let* f = int_field "f" param_fields in
      let* intervals = bool_field "intervals" param_fields in
      let* drops = bool_field "drops" param_fields in
      let* corruption =
        let* rest = find_field "corruption" items in
        corruption_of_sexp rest
      in
      let* behaviors =
        let* rest = find_field "schedule" items in
        collect behavior_of_sexp rest
      in
      let* case =
        check_case
          { S.params = { S.n; rounds; f; intervals; drops }; behaviors; corruption }
      in
      let* _ = Property.find ~name:property ~inject in
      Ok { property; inject; case }
  | _ -> Error "not an (ftss-counterexample ...) document"

let save path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string t))

let load path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        of_string s)

let replay ?obs t =
  let* property = Property.find ~name:t.property ~inject:t.inject in
  Ok (Lazy.force (property.Property.run ?obs t.case).Property.verdict)
