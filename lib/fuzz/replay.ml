module P = Ftss_check.Property
module J = Ftss_obs.Json

type t = { property : string; inject : string; genome : Mutate.t }

let ( let* ) = Result.bind
let version = 3

let to_string t =
  J.to_string
    (J.Obj
       [
         ("format", J.String "ftss-counterexample");
         ("version", J.Int version);
         ("property", J.String t.property);
         ("inject", J.String t.inject);
         ("genome", Mutate.to_json t.genome);
       ])
  ^ "\n"

let save path t = Out_channel.with_open_bin path (fun oc -> output_string oc (to_string t))

let superseded v =
  Error
    (Printf.sprintf
       "a version-%d counterexample, a format no longer read; re-run `ftss check --out` \
        to write it as version %d"
       v version)

let of_json json =
  let* format = J.get "format" J.to_string_opt json in
  let* v = J.get "version" J.to_int_opt json in
  if format <> "ftss-counterexample" then
    Error (Printf.sprintf "format %S is not ftss-counterexample" format)
  else if v = 1 || v = 2 then superseded v
  else if v <> version then Error (Printf.sprintf "unsupported version %d" v)
  else
    let* property = J.get "property" J.to_string_opt json in
    let* inject = J.get "inject" J.to_string_opt json in
    let* prop = P.find ~name:property ~inject in
    let* genome = Result.bind (J.get "genome" Option.some json) Mutate.of_json in
    let sp = Mutate.catalogue prop genome.Mutate.params in
    if genome.Mutate.drops <> [] && not (Mutate.params_of_schedule sp).Mutate.allow_drops
    then
      let drops = List.length genome.Mutate.drops in
      Error
        (Printf.sprintf "%s/%s runs crash schedules only; the genome drops %d message%s"
           property inject drops
           (if drops = 1 then "" else "s"))
    else Ok { property; inject; genome }

(* Version-1 files were S-expressions: no reader for them is kept, but
   one gets the superseded-version error, not a JSON syntax error. *)
let legacy path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> String.starts_with ~prefix:"(" (String.trim s)
  | exception Sys_error _ -> false

let load path =
  let located = Result.map_error (Printf.sprintf "%s: %s" path) in
  match J.load path with
  | Ok json -> located (of_json json)
  | Error _ when legacy path -> located (superseded 1)
  | Error _ as e -> e

let replay ?obs t =
  let* prop = P.find ~name:t.property ~inject:t.inject in
  Ok (Lazy.force (prop.P.run_adv ?obs (Mutate.to_adversary t.genome)).P.verdict)
