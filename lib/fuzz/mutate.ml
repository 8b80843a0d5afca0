open Ftss_util
module S = Ftss_check.Schedule_enum
module P = Ftss_check.Property
module J = Ftss_obs.Json

type params = { n : int; rounds : int; f : int; allow_drops : bool }

type t = {
  params : params;
  faulty : Pidset.t;
  crashes : (Pid.t * int) list;
  drops : (int * Pid.t * Pid.t) list;
  corrupt : (Pid.t * int) list;
}

let value_bound = 1_000_000

let validate_params { n; rounds; f; allow_drops = _ } =
  if n < 2 then Error "n < 2"
  else if n > Pidset.max_pid + 1 then
    Error (Printf.sprintf "n %d exceeds the %d-process cap" n (Pidset.max_pid + 1))
  else if rounds < 1 then Error "rounds < 1"
  else if f < 0 || f >= n then Error "f outside 0..n-1"
  else Ok ()

(* Ascending, duplicate-free: the normal form every constructor returns,
   so structural equality and the JSON round-trip are exact. *)
let sorted_distinct compare l =
  let rec ok = function
    | a :: (b :: _ as rest) -> compare a b < 0 && ok rest
    | _ -> true
  in
  ok l

let ( let* ) = Result.bind

let validate t =
  let { n; rounds; f; allow_drops } = t.params in
  let* () = validate_params t.params in
  let check_pid what p =
    if Pid.is_valid ~n p then Ok ()
    else Error (Printf.sprintf "%s pid %d outside 0..%d" what p (n - 1))
  in
  let check_round what r =
    if 1 <= r && r <= rounds then Ok ()
    else Error (Printf.sprintf "%s round %d outside 1..%d" what r rounds)
  in
  let rec each f = function
    | [] -> Ok ()
    | x :: rest ->
      let* () = f x in
      each f rest
  in
  let* () =
    if Pidset.cardinal t.faulty <= f then Ok ()
    else Error (Printf.sprintf "%d declared faulty, budget f=%d" (Pidset.cardinal t.faulty) f)
  in
  let* () =
    match Pidset.max_elt_opt t.faulty with
    | Some p when p >= n -> Error (Printf.sprintf "faulty pid %d outside 0..%d" p (n - 1))
    | _ -> Ok ()
  in
  let* () =
    if sorted_distinct (fun (p, _) (q, _) -> compare p q) t.crashes then Ok ()
    else Error "crashes not pid-ascending or a pid crashes twice"
  in
  let* () =
    each
      (fun (p, r) ->
        let* () = check_pid "crash" p in
        let* () = check_round "crash" r in
        if Pidset.mem p t.faulty then Ok ()
        else Error (Printf.sprintf "crash of undeclared pid %d" p))
      t.crashes
  in
  let* () =
    if sorted_distinct compare t.drops then Ok ()
    else Error "drops not sorted or duplicated"
  in
  let* () =
    if t.drops = [] || allow_drops then Ok ()
    else Error "drops scheduled with allow_drops = false"
  in
  let* () =
    each
      (fun (r, src, dst) ->
        let* () = check_round "drop" r in
        let* () = check_pid "drop src" src in
        let* () = check_pid "drop dst" dst in
        if Pid.equal src dst then Error "drop of a self-message"
        else if Pidset.mem src t.faulty || Pidset.mem dst t.faulty then Ok ()
        else Error (Printf.sprintf "drop %d->%d has no declared-faulty endpoint" src dst))
      t.drops
  in
  let* () =
    if sorted_distinct (fun (p, _) (q, _) -> compare p q) t.corrupt then Ok ()
    else Error "corrupt not pid-ascending or a pid corrupted twice"
  in
  each
    (fun (p, v) ->
      let* () = check_pid "corrupt" p in
      if 0 <= v && v < value_bound then Ok ()
      else Error (Printf.sprintf "corrupt value %d outside 0..%d" v (value_bound - 1)))
    t.corrupt

let norm t =
  {
    t with
    crashes = List.sort_uniq compare t.crashes;
    drops = List.sort_uniq compare t.drops;
    corrupt = List.sort_uniq compare t.corrupt;
  }

(* --- catalogue injection --- *)

let params_of_schedule (sp : S.params) =
  {
    n = sp.S.n;
    rounds = sp.S.rounds;
    f = sp.S.f;
    allow_drops = sp.S.intervals || sp.S.drops;
  }

let catalogue (prop : P.t) { n; rounds; f; allow_drops } =
  let sp = prop.P.restrict { S.n; rounds; f; intervals = allow_drops; drops = allow_drops } in
  S.validate sp;
  sp

let of_schedule (case : S.t) =
  let params = params_of_schedule case.S.params in
  let n = params.n in
  let faulty = Pidset.of_list (List.map fst case.S.behaviors) in
  let others p = List.filter (fun q -> not (Pid.equal p q)) (Pid.all n) in
  let interval a b row = List.concat_map row (List.init (b - a + 1) (fun i -> a + i)) in
  let drops =
    List.concat_map
      (fun (p, behavior) ->
        match behavior with
        | S.Crash _ -> []
        | S.Mute (a, b) -> interval a b (fun r -> List.map (fun d -> (r, p, d)) (others p))
        | S.Deaf (a, b) -> interval a b (fun r -> List.map (fun s -> (r, s, p)) (others p))
        | S.Isolate (a, b) ->
          interval a b (fun r ->
              List.map (fun d -> (r, p, d)) (others p)
              @ List.map (fun s -> (r, s, p)) (others p))
        | S.Send_drop (r, dst) -> [ (r, p, dst) ]
        | S.Recv_drop (r, src) -> [ (r, src, p) ])
      case.S.behaviors
  in
  let corrupt =
    match case.S.corruption with
    | S.Clean -> []
    | c -> List.map (fun p -> (p, S.corrupt_int c p 0)) (Pid.all n)
  in
  let crashes =
    List.filter_map
      (fun (p, b) -> match b with S.Crash r -> Some (p, r) | _ -> None)
      case.S.behaviors
  in
  norm { params; faulty; crashes; drops; corrupt }

(* --- compilation to the evaluator interface --- *)

let to_faults t =
  (* Blame first: the declared faulty set is then exactly [t.faulty] —
     [Faults.of_events] charges a bare [Drop] to its sender only when
     neither endpoint is already declared, which never happens here
     because every drop has a declared endpoint. *)
  let events =
    List.map (fun pid -> Ftss_sync.Faults.Blame { pid }) (Pidset.to_list t.faulty)
    @ List.map (fun (pid, round) -> Ftss_sync.Faults.Crash { pid; round }) t.crashes
    @ List.map (fun (round, src, dst) -> Ftss_sync.Faults.Drop { src; dst; round }) t.drops
  in
  Ftss_sync.Faults.of_events ~n:t.params.n events

let to_adversary t =
  {
    P.adv_n = t.params.n;
    adv_rounds = t.params.rounds;
    adv_f = t.params.f;
    adv_faults = to_faults t;
    adv_corrupt = (fun p -> List.assoc_opt p t.corrupt);
  }

(* --- sizes, equality --- *)

let size t =
  Pidset.cardinal t.faulty
  + List.fold_left (fun acc (_, r) -> acc + (t.params.rounds - r + 1)) 0 t.crashes
  + List.length t.drops + List.length t.corrupt

let equal a b = a = b
let compare = Stdlib.compare

(* --- mutation --- *)

(* Discharge pids until the budget holds again: remove the largest
   declared pid, its crash, and every drop left without a declared
   endpoint. Used by [splice], whose union can exceed [f]. *)
let rec repair t =
  if Pidset.cardinal t.faulty <= t.params.f then t
  else
    match Pidset.max_elt_opt t.faulty with
    | None -> t
    | Some p ->
      let faulty = Pidset.remove p t.faulty in
      repair
        {
          t with
          faulty;
          crashes = List.filter (fun (q, _) -> not (Pid.equal p q)) t.crashes;
          drops =
            List.filter
              (fun (_, src, dst) -> Pidset.mem src faulty || Pidset.mem dst faulty)
              t.drops;
        }

let mutate rng t =
  let { n; rounds; f; allow_drops } = t.params in
  let all_pids = Pid.all n in
  let faulty_pids = Pidset.to_list t.faulty in
  let undeclared = List.filter (fun p -> not (Pidset.mem p t.faulty)) all_pids in
  let uncharged =
    List.filter
      (fun p ->
        (not (List.mem_assoc p t.crashes))
        &&
        let faulty' = Pidset.remove p t.faulty in
        List.for_all
          (fun (_, src, dst) -> Pidset.mem src faulty' || Pidset.mem dst faulty')
          t.drops)
      faulty_pids
  in
  let clamp_round r = max 1 (min rounds r) in
  let set_assoc p v l = (p, v) :: List.remove_assoc p l in
  (* Operators applicable to [t], each drawing its own randomness only
     once selected — one uniform choice among operators, then the
     operator's choices, keeps the stream deterministic and compact. *)
  let ops = ref [] in
  let op g = ops := g :: !ops in
  if undeclared <> [] && Pidset.cardinal t.faulty < f then
    op (fun () -> { t with faulty = Pidset.add (Rng.pick rng undeclared) t.faulty });
  if uncharged <> [] then
    op (fun () -> { t with faulty = Pidset.remove (Rng.pick rng uncharged) t.faulty });
  if faulty_pids <> [] then
    op (fun () ->
        let p = Rng.pick rng faulty_pids in
        { t with crashes = set_assoc p (Rng.int_in rng 1 rounds) t.crashes });
  if t.crashes <> [] then begin
    op (fun () ->
        let p, _ = Rng.pick rng t.crashes in
        { t with crashes = List.remove_assoc p t.crashes });
    op (fun () ->
        let p, r = Rng.pick rng t.crashes in
        let r' = clamp_round (if Rng.bool rng then r + 1 else r - 1) in
        { t with crashes = set_assoc p r' t.crashes })
  end;
  if allow_drops && faulty_pids <> [] && n >= 2 then
    op (fun () ->
        (* Flip one cell of the drop matrix: present -> absent,
           absent -> present. The declared endpoint anchors validity. *)
        let charged = Rng.pick rng faulty_pids in
        let other = Rng.pick rng (List.filter (fun q -> not (Pid.equal q charged)) all_pids) in
        let src, dst = if Rng.bool rng then (charged, other) else (other, charged) in
        let cell = (Rng.int_in rng 1 rounds, src, dst) in
        if List.mem cell t.drops then
          { t with drops = List.filter (fun d -> d <> cell) t.drops }
        else { t with drops = cell :: t.drops });
  if t.drops <> [] then begin
    op (fun () ->
        (* Widen: replicate a drop into an adjacent round. *)
        let r, src, dst = Rng.pick rng t.drops in
        let cell = (clamp_round (if Rng.bool rng then r + 1 else r - 1), src, dst) in
        if List.mem cell t.drops then t else { t with drops = cell :: t.drops });
    op (fun () ->
        (* Shift: move a drop to an adjacent round. *)
        let ((r, src, dst) as old) = Rng.pick rng t.drops in
        let cell = (clamp_round (if Rng.bool rng then r + 1 else r - 1), src, dst) in
        let rest = List.filter (fun d -> d <> old) t.drops in
        if List.mem cell rest then { t with drops = rest }
        else { t with drops = cell :: rest })
  end;
  op (fun () ->
      let p = Rng.pick rng all_pids in
      { t with corrupt = set_assoc p (Rng.int rng value_bound) t.corrupt });
  if t.corrupt <> [] then
    op (fun () ->
        let p, _ = Rng.pick rng t.corrupt in
        { t with corrupt = List.remove_assoc p t.corrupt });
  norm ((Rng.pick rng !ops) ())

let splice rng a b =
  if a.params <> b.params then invalid_arg "Mutate.splice: parents disagree on params";
  let merge_assoc xs ys =
    let pids = List.sort_uniq compare (List.map fst (xs @ ys)) in
    List.filter_map
      (fun p ->
        match (List.assoc_opt p xs, List.assoc_opt p ys) with
        | Some x, Some y -> Some (p, if Rng.bool rng then x else y)
        | Some x, None -> if Rng.bool rng then Some (p, x) else None
        | None, Some y -> if Rng.bool rng then Some (p, y) else None
        | None, None -> None)
      pids
  in
  let drops =
    List.filter_map
      (fun cell ->
        let in_a = List.mem cell a.drops and in_b = List.mem cell b.drops in
        if (in_a && in_b) || Rng.bool rng then Some cell else None)
      (List.sort_uniq compare (a.drops @ b.drops))
  in
  let crashes = merge_assoc a.crashes b.crashes in
  let corrupt = merge_assoc a.corrupt b.corrupt in
  let faulty =
    (* Everything either parent declared, kept only as far as the
       inherited events need it plus coin-flipped bare blames; [repair]
       then enforces the budget. *)
    let referenced =
      Pidset.of_list
        (List.map fst crashes
        @ List.concat_map
            (fun (_, src, dst) ->
              (if Pidset.mem src a.faulty || Pidset.mem src b.faulty then [ src ] else [])
              @
              if Pidset.mem dst a.faulty || Pidset.mem dst b.faulty then [ dst ] else [])
            drops)
    in
    Pidset.fold
      (fun p acc -> if Pidset.mem p referenced || Rng.bool rng then Pidset.add p acc else acc)
      (Pidset.union a.faulty b.faulty)
      Pidset.empty
  in
  repair (norm { a with faulty; crashes; drops; corrupt })

(* --- reductions (the shrinking order) --- *)

let reductions t =
  let remove_one l = List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) l) l in
  (* Coarse group moves first, the analogues of whole-behaviour
     removals and corruption downgrades of a catalogue case: they let the
     greedy descent tunnel past local minima where no single-entry
     removal still fails but removing a whole row/process/class does.
     Each is only offered when it strictly shrinks by more than the
     single-entry moves below already would. *)
  let all_drops_removal = if List.length t.drops >= 2 then [ { t with drops = [] } ] else [] in
  let all_corrupt_removal =
    if List.length t.corrupt >= 2 then [ { t with corrupt = [] } ] else []
  in
  let pid_removals =
    (* The behaviour-removal analogue: discharge a faulty pid together
       with every crash and drop that touches it. Remaining drops never
       involved the pid, so their blame obligation is intact. *)
    List.map
      (fun p ->
        norm
          {
            t with
            faulty = Pidset.remove p t.faulty;
            crashes = List.remove_assoc p t.crashes;
            drops =
              List.filter
                (fun (_, src, dst) -> not (Pid.equal src p || Pid.equal dst p))
                t.drops;
          })
      (Pidset.to_list t.faulty)
  in
  let row_removals =
    (* The interval-weakening analogue: erase a whole (endpoint, round)
       row of the drop matrix at once. Rows of one entry are already
       covered by the single-drop removals. *)
    let groups = Hashtbl.create 16 in
    List.iter
      (fun (r, src, dst) ->
        List.iter
          (fun key ->
            Hashtbl.replace groups key
              (1 + Option.value ~default:0 (Hashtbl.find_opt groups key)))
          [ (r, src, true); (r, dst, false) ])
      t.drops;
    Hashtbl.fold
      (fun (r, p, as_src) count acc ->
        if count < 2 then acc
        else
          norm
            {
              t with
              drops =
                List.filter
                  (fun (r', src, dst) ->
                    not (r' = r && Pid.equal (if as_src then src else dst) p))
                  t.drops;
            }
          :: acc)
      groups []
  in
  let drop_removals = List.map (fun drops -> norm { t with drops }) (remove_one t.drops) in
  let crash_removals =
    List.map (fun crashes -> norm { t with crashes }) (remove_one t.crashes)
  in
  let crash_postponements =
    List.filter_map
      (fun (p, r) ->
        if r < t.params.rounds then
          Some (norm { t with crashes = (p, r + 1) :: List.remove_assoc p t.crashes })
        else None)
      t.crashes
  in
  let corrupt_removals =
    List.map (fun corrupt -> norm { t with corrupt }) (remove_one t.corrupt)
  in
  let blame_removals =
    List.filter_map
      (fun p ->
        let faulty = Pidset.remove p t.faulty in
        let charged =
          List.mem_assoc p t.crashes
          || List.exists
               (fun (_, src, dst) ->
                 not (Pidset.mem src faulty || Pidset.mem dst faulty))
               t.drops
        in
        if charged then None else Some { t with faulty })
      (Pidset.to_list t.faulty)
  in
  all_drops_removal @ all_corrupt_removal @ pid_removals @ row_removals
  @ drop_removals @ crash_removals @ crash_postponements @ corrupt_removals
  @ blame_removals

(* --- printing & persistence --- *)

let pp ppf t =
  Format.fprintf ppf "@[<h>faulty=%a" Pidset.pp t.faulty;
  List.iter (fun (p, r) -> Format.fprintf ppf " crash(%a@@%d)" Pid.pp p r) t.crashes;
  List.iter
    (fun (r, src, dst) -> Format.fprintf ppf " drop(r%d %a->%a)" r Pid.pp src Pid.pp dst)
    t.drops;
  List.iter (fun (p, v) -> Format.fprintf ppf " corrupt(%a=%d)" Pid.pp p v) t.corrupt;
  Format.fprintf ppf "@]"

let to_json t =
  let { n; rounds; f; allow_drops } = t.params in
  let ints l = J.List (List.map (fun i -> J.Int i) l) in
  J.Obj
    [
      ("format", J.String "ftss-genome");
      ("version", J.Int 2);
      ( "params",
        J.Obj
          [
            ("n", J.Int n);
            ("rounds", J.Int rounds);
            ("f", J.Int f);
            ("allow_drops", J.Bool allow_drops);
          ] );
      ("faulty", ints (Pidset.to_list t.faulty));
      ("crashes", J.List (List.map (fun (p, r) -> ints [ p; r ]) t.crashes));
      ("drops", J.List (List.map (fun (r, src, dst) -> ints [ r; src; dst ]) t.drops));
      ("corrupt", J.List (List.map (fun (p, v) -> ints [ p; v ]) t.corrupt));
    ]

(* [list conv] reads a JSON array whose every element [conv] accepts. *)
let list conv = function
  | J.List xs ->
    List.fold_right
      (fun x acc -> match (conv x, acc) with Some v, Some vs -> Some (v :: vs) | _ -> None)
      xs (Some [])
  | _ -> None

let pair = function J.List [ J.Int a; J.Int b ] -> Some (a, b) | _ -> None
let triple = function J.List [ J.Int a; J.Int b; J.Int c ] -> Some (a, b, c) | _ -> None

let of_json json =
  let* format = J.get "format" J.to_string_opt json in
  let* version = J.get "version" J.to_int_opt json in
  if format <> "ftss-genome" then
    Error (Printf.sprintf "format %S is not ftss-genome" format)
  else if version <> 2 then Error (Printf.sprintf "unsupported genome version %d" version)
  else
    let* p = J.get "params" Option.some json in
    let* n = J.get "n" J.to_int_opt p in
    let* rounds = J.get "rounds" J.to_int_opt p in
    let* f = J.get "f" J.to_int_opt p in
    let* allow_drops = J.get "allow_drops" J.to_bool_opt p in
    let* faulty_pids = J.get "faulty" (list J.to_int_opt) json in
    let* () =
      if List.for_all (fun p -> 0 <= p && p <= Pidset.max_pid) faulty_pids then Ok ()
      else Error "faulty pid outside the representable range"
    in
    let* crashes = J.get "crashes" (list pair) json in
    let* drops = J.get "drops" (list triple) json in
    let* corrupt = J.get "corrupt" (list pair) json in
    let t =
      {
        params = { n; rounds; f; allow_drops };
        faulty = Pidset.of_list faulty_pids;
        crashes;
        drops;
        corrupt;
      }
    in
    let* () = validate t in
    Ok t
