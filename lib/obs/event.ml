open Ftss_util

type body =
  | Round_begin
  | Round_end
  | Send of { src : Pid.t; dst : Pid.t option }
  | Deliver of { src : Pid.t; dst : Pid.t }
  | Drop of { src : Pid.t; dst : Pid.t; blame : Pid.t option }
  | Crash of { pid : Pid.t }
  | Corrupt of { pid : Pid.t }
  | Suspect_add of { observer : Pid.t; subject : Pid.t }
  | Suspect_remove of { observer : Pid.t; subject : Pid.t }
  | Decide of { pid : Pid.t; instance : int; value : int }
  | Window_open
  | Window_close of { opened : int; measured : int }
  | Case_start of { case : int }
  | Case_verdict of { case : int; ok : bool; dedup : bool; states : int }
  | Coverage of { execs : int; corpus : int; points : int }
  | Submit of { pid : Pid.t; ops : int }
  | Commit of { pid : Pid.t; slot : int; ops : int }
  | Apply of { pid : Pid.t; slot : int; digest : int }
  | Recover of { pid : Pid.t; slots : int }

type t = { time : int; body : body }

let make ~time body = { time; body }

let kind t =
  match t.body with
  | Round_begin -> "round_begin"
  | Round_end -> "round_end"
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Drop _ -> "drop"
  | Crash _ -> "crash"
  | Corrupt _ -> "corrupt"
  | Suspect_add _ -> "suspect_add"
  | Suspect_remove _ -> "suspect_remove"
  | Decide _ -> "decide"
  | Window_open -> "window_open"
  | Window_close _ -> "window_close"
  | Case_start _ -> "case_start"
  | Case_verdict _ -> "case_verdict"
  | Coverage _ -> "coverage"
  | Submit _ -> "submit"
  | Commit _ -> "commit"
  | Apply _ -> "apply"
  | Recover _ -> "recover"

let kinds =
  [
    "round_begin"; "round_end"; "send"; "deliver"; "drop"; "crash"; "corrupt";
    "suspect_add"; "suspect_remove"; "decide"; "window_open"; "window_close";
    "case_start"; "case_verdict"; "coverage"; "submit"; "commit"; "apply";
    "recover";
  ]

let to_json t =
  let fields =
    match t.body with
    | Round_begin | Round_end | Window_open -> []
    | Send { src; dst } -> (
      ("src", Json.Int src)
      :: (match dst with None -> [] | Some d -> [ ("dst", Json.Int d) ]))
    | Deliver { src; dst } -> [ ("src", Json.Int src); ("dst", Json.Int dst) ]
    | Drop { src; dst; blame } -> (
      ("src", Json.Int src) :: ("dst", Json.Int dst)
      :: (match blame with None -> [] | Some b -> [ ("blame", Json.Int b) ]))
    | Crash { pid } | Corrupt { pid } -> [ ("pid", Json.Int pid) ]
    | Suspect_add { observer; subject } | Suspect_remove { observer; subject } ->
      [ ("observer", Json.Int observer); ("subject", Json.Int subject) ]
    | Decide { pid; instance; value } ->
      [ ("pid", Json.Int pid); ("instance", Json.Int instance); ("value", Json.Int value) ]
    | Window_close { opened; measured } ->
      [ ("opened", Json.Int opened); ("measured", Json.Int measured) ]
    | Case_start { case } -> [ ("case", Json.Int case) ]
    | Case_verdict { case; ok; dedup; states } ->
      [
        ("case", Json.Int case); ("ok", Json.Bool ok); ("dedup", Json.Bool dedup);
        ("states", Json.Int states);
      ]
    | Coverage { execs; corpus; points } ->
      [
        ("execs", Json.Int execs); ("corpus", Json.Int corpus);
        ("points", Json.Int points);
      ]
    | Submit { pid; ops } -> [ ("pid", Json.Int pid); ("ops", Json.Int ops) ]
    | Commit { pid; slot; ops } ->
      [ ("pid", Json.Int pid); ("slot", Json.Int slot); ("ops", Json.Int ops) ]
    | Apply { pid; slot; digest } ->
      [ ("pid", Json.Int pid); ("slot", Json.Int slot); ("digest", Json.Int digest) ]
    | Recover { pid; slots } ->
      [ ("pid", Json.Int pid); ("slots", Json.Int slots) ]
  in
  Json.Obj (("t", Json.Int t.time) :: ("ev", Json.String (kind t)) :: fields)

let of_json json =
  let ( let* ) = Option.bind in
  let int k = Option.bind (Json.member k json) Json.to_int_opt in
  let bool k = Option.bind (Json.member k json) Json.to_bool_opt in
  let* time = int "t" in
  let* ev = Option.bind (Json.member "ev" json) Json.to_string_opt in
  let* body =
    match ev with
    | "round_begin" -> Some Round_begin
    | "round_end" -> Some Round_end
    | "window_open" -> Some Window_open
    | "send" ->
      let* src = int "src" in
      Some (Send { src; dst = int "dst" })
    | "deliver" ->
      let* src = int "src" in
      let* dst = int "dst" in
      Some (Deliver { src; dst })
    | "drop" ->
      let* src = int "src" in
      let* dst = int "dst" in
      Some (Drop { src; dst; blame = int "blame" })
    | "crash" ->
      let* pid = int "pid" in
      Some (Crash { pid })
    | "corrupt" ->
      let* pid = int "pid" in
      Some (Corrupt { pid })
    | "suspect_add" ->
      let* observer = int "observer" in
      let* subject = int "subject" in
      Some (Suspect_add { observer; subject })
    | "suspect_remove" ->
      let* observer = int "observer" in
      let* subject = int "subject" in
      Some (Suspect_remove { observer; subject })
    | "decide" ->
      let* pid = int "pid" in
      let* instance = int "instance" in
      let* value = int "value" in
      Some (Decide { pid; instance; value })
    | "window_close" ->
      let* opened = int "opened" in
      let* measured = int "measured" in
      Some (Window_close { opened; measured })
    | "case_start" ->
      let* case = int "case" in
      Some (Case_start { case })
    | "case_verdict" ->
      let* case = int "case" in
      let* ok = bool "ok" in
      let* dedup = bool "dedup" in
      let* states = int "states" in
      Some (Case_verdict { case; ok; dedup; states })
    | "coverage" ->
      let* execs = int "execs" in
      let* corpus = int "corpus" in
      let* points = int "points" in
      Some (Coverage { execs; corpus; points })
    | "submit" ->
      let* pid = int "pid" in
      let* ops = int "ops" in
      Some (Submit { pid; ops })
    | "commit" ->
      let* pid = int "pid" in
      let* slot = int "slot" in
      let* ops = int "ops" in
      Some (Commit { pid; slot; ops })
    | "apply" ->
      let* pid = int "pid" in
      let* slot = int "slot" in
      let* digest = int "digest" in
      Some (Apply { pid; slot; digest })
    | "recover" ->
      let* pid = int "pid" in
      let* slots = int "slots" in
      Some (Recover { pid; slots })
    | _ -> None
  in
  Some { time; body }

let pp ppf t =
  Format.fprintf ppf "t=%-5d %s" t.time (kind t);
  match t.body with
  | Round_begin | Round_end | Window_open -> ()
  | Send { src; dst } -> (
    match dst with
    | None -> Format.fprintf ppf " %a->*" Pid.pp src
    | Some d -> Format.fprintf ppf " %a->%a" Pid.pp src Pid.pp d)
  | Deliver { src; dst } -> Format.fprintf ppf " %a->%a" Pid.pp src Pid.pp dst
  | Drop { src; dst; blame } -> (
    Format.fprintf ppf " %a->%a" Pid.pp src Pid.pp dst;
    match blame with
    | Some b -> Format.fprintf ppf " blame=%a" Pid.pp b
    | None -> ())
  | Crash { pid } | Corrupt { pid } -> Format.fprintf ppf " %a" Pid.pp pid
  | Suspect_add { observer; subject } ->
    Format.fprintf ppf " %a suspects %a" Pid.pp observer Pid.pp subject
  | Suspect_remove { observer; subject } ->
    Format.fprintf ppf " %a trusts %a" Pid.pp observer Pid.pp subject
  | Decide { pid; instance; value } ->
    Format.fprintf ppf " %a instance=%d value=%d" Pid.pp pid instance value
  | Window_close { opened; measured } ->
    Format.fprintf ppf " opened=%d measured=%d" opened measured
  | Case_start { case } -> Format.fprintf ppf " case=%d" case
  | Case_verdict { case; ok; dedup; states } ->
    Format.fprintf ppf " case=%d ok=%b dedup=%b states=%d" case ok dedup states
  | Coverage { execs; corpus; points } ->
    Format.fprintf ppf " execs=%d corpus=%d points=%d" execs corpus points
  | Submit { pid; ops } -> Format.fprintf ppf " %a ops=%d" Pid.pp pid ops
  | Commit { pid; slot; ops } ->
    Format.fprintf ppf " %a slot=%d ops=%d" Pid.pp pid slot ops
  | Apply { pid; slot; digest } ->
    Format.fprintf ppf " %a slot=%d digest=%d" Pid.pp pid slot digest
  | Recover { pid; slots } -> Format.fprintf ppf " %a slots=%d" Pid.pp pid slots
