type t = { emit : Event.t -> unit; close : unit -> unit }

let make ~emit ~close = { emit; close }

let jsonl oc =
  {
    emit =
      (fun ev ->
        output_string oc (Json.to_string (Event.to_json ev));
        output_char oc '\n');
    close = (fun () -> flush oc);
  }

let jsonl_file path =
  let oc = open_out path in
  let inner = jsonl oc in
  { inner with close = (fun () -> close_out oc) }

let console ?kinds ppf =
  let keep =
    match kinds with
    | None -> fun _ -> true
    | Some ks -> fun ev -> List.mem (Event.kind ev) ks
  in
  {
    emit = (fun ev -> if keep ev then Format.fprintf ppf "%a@." Event.pp ev);
    close = (fun () -> Format.pp_print_flush ppf ());
  }
