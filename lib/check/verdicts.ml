(* [marks] holds '\000' for an empty slot, else '\001' (failed) or
   '\002' (passed) for the fingerprint in [keys] at that slot. The
   capacity is a power of two and at most three quarters full. *)
type t = { mutable keys : int array; mutable marks : Bytes.t; mutable size : int }

let create () = { keys = Array.make 256 0; marks = Bytes.make 256 '\000'; size = 0 }

(* The slot holding [fp], or the empty slot where it belongs. *)
let slot t fp =
  let mask = Array.length t.keys - 1 in
  let rec probe s =
    if Bytes.unsafe_get t.marks s = '\000' || t.keys.(s) = fp then s
    else probe ((s + 1) land mask)
  in
  probe (fp land mask)

let grow t =
  let keys = t.keys and marks = t.marks in
  let capacity = 2 * Array.length keys in
  t.keys <- Array.make capacity 0;
  t.marks <- Bytes.make capacity '\000';
  Bytes.iteri
    (fun s m ->
      if m <> '\000' then begin
        let s' = slot t keys.(s) in
        t.keys.(s') <- keys.(s);
        Bytes.unsafe_set t.marks s' m
      end)
    marks

let memo t (r : Property.run) =
  let fp = r.Property.fingerprint in
  let s = slot t fp in
  match Bytes.unsafe_get t.marks s with
  | '\000' ->
    let ok = (Lazy.force r.Property.verdict).Property.ok in
    t.keys.(s) <- fp;
    Bytes.unsafe_set t.marks s (if ok then '\002' else '\001');
    t.size <- t.size + 1;
    if 4 * t.size > 3 * Array.length t.keys then grow t;
    ok
  | m -> m = '\002'

let mem t fp = Bytes.unsafe_get t.marks (slot t fp) <> '\000'

let distinct ts =
  let count = ref 0 in
  Array.iteri
    (fun d t ->
      Bytes.iteri
        (fun s m ->
          if m <> '\000' then begin
            let fp = t.keys.(s) in
            let rec earlier e = e < d && (mem ts.(e) fp || earlier (e + 1)) in
            if not (earlier 0) then incr count
          end)
        t.marks)
    ts;
  !count
