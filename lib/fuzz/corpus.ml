type t = {
  mutable rev_entries : (Mutate.t * string) list;  (* (genome, fingerprint) *)
  mutable count : int;
  fingerprints : (string, unit) Hashtbl.t;
  words : (int, unit) Hashtbl.t;
}

let max_entries = 4096 (* admission cap; why in corpus.mli *)

let create () =
  {
    rev_entries = [];
    count = 0;
    fingerprints = Hashtbl.create 256;
    words = Hashtbl.create 1024;
  }

let entries t = List.rev_map fst t.rev_entries
let length t = t.count
let points t = Hashtbl.length t.fingerprints + Hashtbl.length t.words

let observe t ~genome ~fingerprint ~signature =
  let grew = ref false in
  if not (Hashtbl.mem t.fingerprints fingerprint) then begin
    Hashtbl.add t.fingerprints fingerprint ();
    grew := true
  end;
  Array.iter
    (fun w ->
      if not (Hashtbl.mem t.words w) then begin
        Hashtbl.add t.words w ();
        grew := true
      end)
    signature;
  if !grew && t.count < max_entries then begin
    t.rev_entries <- (genome, fingerprint) :: t.rev_entries;
    t.count <- t.count + 1
  end;
  !grew

(* Fingerprints are hex strings (plus '-' for composite results), safe as
   file names; no escaping needed. *)
let entry_file dir fingerprint = Filename.concat dir (fingerprint ^ ".genome")

let save t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (genome, fingerprint) ->
      let path = entry_file dir fingerprint in
      if not (Sys.file_exists path) then begin
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Mutate.to_string genome))
      end)
    (List.rev t.rev_entries)

let load ~dir =
  if not (Sys.file_exists dir) then Ok []
  else
    match Sys.readdir dir with
    | exception Sys_error m -> Error m
    | names ->
      let names =
        Array.to_list names
        |> List.filter (fun f -> Filename.check_suffix f ".genome")
        |> List.sort String.compare
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
          let path = Filename.concat dir name in
          match
            let ic = open_in path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with
          | exception Sys_error m -> Error (Printf.sprintf "%s: %s" path m)
          | exception End_of_file -> Error (Printf.sprintf "%s: truncated" path)
          | contents -> (
            match Mutate.of_string contents with
            | Ok genome -> go (genome :: acc) rest
            | Error m -> Error (Printf.sprintf "%s: %s" path m)))
      in
      go [] names
