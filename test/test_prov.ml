(* Tests for the causal provenance engine: the differential check that
   cone-derived knowledge sets coincide with Ftss_history.Causality on
   synchronous traces (over a whole adversary corpus), drop-pruning and
   blame chaining, destabilizing-event detection with connecting deliver
   edges, JSONL round-trips, selector parsing, DOT export, and a
   structural check of message pairing on asynchronous consensus and
   service-tower traces. *)

open Ftss_util
open Ftss_sync
open Ftss_obs
open Ftss_check
module Prov = Ftss_prov.Prov

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let counter_protocol : (int, int) Protocol.t =
  {
    Protocol.name = "counter";
    init = (fun _ -> 0);
    broadcast = (fun _ c -> c);
    step = (fun _ c _ -> c + 1);
  }

(* Run [faults] for [rounds] rounds, traced, returning the runner's trace
   (for Causality), the provenance index built from the very same event
   stream, and the stream itself (event ids are stream positions). *)
let run_indexed ~rounds faults =
  let obs, events = Test_obs.collecting () in
  let trace = Runner.run ~obs ~faults ~rounds counter_protocol in
  (trace, Prov.of_events (events ()), Array.of_list (events ()))

(* --- the differential test: cones vs Causality over a corpus --- *)

let test_differential_against_causality () =
  let params =
    { Schedule_enum.n = 3; rounds = 3; f = 1; intervals = true; drops = true }
  in
  let cases = Schedule_enum.enumerate params in
  check "corpus is non-trivial" true (Array.length cases > 50);
  Array.iter
    (fun case ->
      let params = case.Schedule_enum.params in
      let trace, t, _ =
        run_indexed ~rounds:params.Schedule_enum.rounds (Schedule_enum.to_faults case)
      in
      let c = Ftss_history.Causality.analyze trace in
      let rounds = Ftss_history.Causality.length c in
      for r = 0 to rounds do
        for p = 0 to params.Schedule_enum.n - 1 do
          if not (Pidset.equal (Prov.knows t ~round:r p) (Ftss_history.Causality.knows c ~round:r p))
          then
            Alcotest.failf "K_%d(%d) differs on case %s: prov %s, causality %s" r p
              (Format.asprintf "%a" Schedule_enum.pp case)
              (Format.asprintf "%a" Pidset.pp (Prov.knows t ~round:r p))
              (Format.asprintf "%a" Pidset.pp (Ftss_history.Causality.knows c ~round:r p))
        done;
        let correct = Ftss_history.Causality.correct c in
        if not (Pidset.equal (Prov.coterie t ~round:r ~correct) (Ftss_history.Causality.coterie c ~round:r))
        then
          Alcotest.failf "coterie at %d differs on case %s" r
            (Format.asprintf "%a" Schedule_enum.pp case)
      done;
      (* Destabilizing events coincide with Causality.changes. *)
      let correct = Ftss_history.Causality.correct c in
      let changes = Ftss_history.Causality.changes c in
      let growth = Prov.growth t ~correct in
      if
        List.length changes <> List.length growth
        || not
             (List.for_all2
                (fun (r1, s1) (r2, s2) -> r1 = r2 && Pidset.equal s1 s2)
                changes growth)
      then
        Alcotest.failf "growth differs on case %s" (Format.asprintf "%a" Schedule_enum.pp case))
    cases

(* --- the DAG checked against the stream --- *)

(* [pairing_sound t] checks every edge of the DAG against the event
   stream alone, with no second clock:
   - a [Deliver] has exactly one message parent: a [Send] from the same
     [src], addressed to its [dst] or broadcast, earlier in the stream
     and at a time no later than the deliver's;
   - a [Drop]'s one parent, its suppressed send, meets the same
     condition;
   - every other parent of a located event is the event's predecessor
     on its own lane;
   - a global event's parents are exactly the latest event of each lane.
   A lane predecessor that is itself a matching send (a self-delivery
   right after a self-send) is told apart from the message parent by
   removing one occurrence of the predecessor first. *)
let pairing_sound t evs =
  let n =
    1 + Array.fold_left max (-1) (Array.mapi (fun i _ -> Option.value ~default:(-1) (Prov.located t i)) evs)
  in
  let last = Array.make (max 1 n) (-1) in
  let fail i fmt =
    Printf.ksprintf
      (fun msg -> Error (Format.asprintf "event %d (%a): %s" i Event.pp evs.(i) msg))
      fmt
  in
  let message_parent i ~src ~dst = function
    | [ j ] -> (
      let ev = evs.(j) in
      match ev.Event.body with
      | Event.Send { src = s; dst = d }
        when s = src
             && (d = None || d = Some dst)
             && j < i
             && ev.Event.time <= evs.(i).Event.time ->
        Ok ()
      | _ -> fail i "parent %d is not a matching earlier send" j)
    | ps -> fail i "%d message parents, want 1" (List.length ps)
  in
  let rec remove_one x = function
    | [] -> None
    | y :: ys when y = x -> Some ys
    | y :: ys -> Option.map (fun ys -> y :: ys) (remove_one x ys)
  in
  let rec go i =
    if i >= Prov.length t then Ok ()
    else
      let ps = Prov.parents t i in
      let r =
        match (Prov.located t i, evs.(i).Event.body) with
        | Some p, body -> (
          let rest =
            if last.(p) < 0 then Some ps else remove_one last.(p) ps
          in
          match (rest, body) with
          | None, _ -> fail i "lane predecessor %d is not a parent" last.(p)
          | Some rest, Event.Deliver { src; dst } -> message_parent i ~src ~dst rest
          | Some [], _ -> Ok ()
          | Some (j :: _), _ -> fail i "parent %d is off its lane" j)
        | None, Event.Drop { src; dst; _ } -> message_parent i ~src ~dst ps
        | None, _ ->
          let lanes = List.filter (fun j -> j >= 0) (Array.to_list last) in
          if List.sort compare ps = List.sort compare lanes then Ok ()
          else fail i "a global event's parents are not the lane heads"
      in
      match r with
      | Error _ as e -> e
      | Ok () ->
        (match Prov.located t i with Some p -> last.(p) <- i | None -> ());
        go (i + 1)
  in
  go 0

let check_pairing what t evs =
  match pairing_sound t evs with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* --- drop pruning --- *)

let test_drop_pruning () =
  (* p1 is muted for the whole run: its messages to others are all
     dropped (self-delivery survives, paper footnote 1). *)
  let n = 3 and rounds = 3 in
  let faults =
    Faults.of_events ~n
      (List.concat_map
         (fun r -> [ Faults.Drop { src = 1; dst = 0; round = r }; Faults.Drop { src = 1; dst = 2; round = r } ])
         [ 1; 2; 3 ])
  in
  let _trace, t, evs = run_indexed ~rounds faults in
  (* Nobody but p1 ever hears from p1. *)
  check "p0 never knows p1" false (Pidset.mem 1 (Prov.knows t ~round:rounds 0));
  check "p2 never knows p1" false (Pidset.mem 1 (Prov.knows t ~round:rounds 2));
  check "p1 knows everyone" true
    (Pidset.equal (Prov.knows t ~round:rounds 1) (Pidset.full n));
  (* No drop node appears in any located event's cone, and none of p1's
     events appear in p0's cone. *)
  let drops =
    List.filter
      (fun i -> match evs.(i).Event.body with Event.Drop _ -> true | _ -> false)
      (List.init (Prov.length t) Fun.id)
  in
  check "the run has drops" true (drops <> []);
  for p = 0 to n - 1 do
    match Prov.last_at t p with
    | None -> Alcotest.failf "p%d has no events" p
    | Some last ->
      let cone = Prov.cone t [ last ] in
      List.iter
        (fun d -> check "drop pruned from cone" false (List.mem d cone))
        drops;
      if p = 0 then
        List.iter
          (fun i ->
            if Prov.located t i = Some 1 then
              check "p1's events pruned from p0's cone" false (List.mem i cone))
          cone
  done;
  (* Every drop consumed a matching send and blames the faulty endpoint. *)
  check_pairing "muted run" t evs;
  List.iter
    (fun d ->
      check "blamed on the muted endpoint" true
        (match evs.(d).Event.body with Event.Drop { blame; _ } -> blame = Some 1 | _ -> false))
    drops

(* --- destabilizing events and connecting delivers --- *)

let test_growth_and_connecting_delivers () =
  (* p0 is isolated from others in round 1 (both directions): K_1(0) =
     {0} and p0 is in nobody else's K_1, so the round-1 coterie is empty
     and the whole system enters at round 2 — one destabilizing event,
     whose connecting deliver edges from p0 must land in the cones of
     the correct observers' last events. *)
  let n = 3 and rounds = 3 in
  let faults =
    Faults.of_events ~n
      [
        Faults.Drop { src = 0; dst = 1; round = 1 };
        Faults.Drop { src = 0; dst = 2; round = 1 };
        Faults.Drop { src = 1; dst = 0; round = 1 };
        Faults.Drop { src = 2; dst = 0; round = 1 };
      ]
  in
  let _trace, t, evs = run_indexed ~rounds faults in
  let correct = Prov.inferred_correct t in
  let growth = Prov.growth t ~correct in
  check "one growth round" true (List.length growth = 1);
  let r2, entered = List.hd growth in
  check_int "the coterie forms at round 2" 2 r2;
  check "everyone enters together" true (Pidset.equal entered (Pidset.full n));
  (* The explanation of the correct observers' last events names p0's
     entry and its connecting delivers: delivers from p0 at the growth
     round, and — the acceptance check — in the observers' cone. *)
  let targets = List.filter_map (fun q -> Prov.last_at t q) (Pidset.to_list correct) in
  let lines =
    String.split_on_char '\n' (Format.asprintf "%a" Prov.pp_explain (t, targets))
  in
  let rec after_entry = function
    | [] -> Alcotest.fail "p0's entry is not explained"
    | "  t=2: p0 entered the coterie" :: rest -> rest
    | _ :: rest -> after_entry rest
  in
  let rec vias = function
    | l :: rest when String.starts_with ~prefix:"    via " l -> l :: vias rest
    | _ -> []
  in
  let ds =
    List.map
      (fun l -> int_of_string (List.hd (String.split_on_char ':' (String.sub l 8 (String.length l - 8)))))
      (vias (after_entry lines))
  in
  check "connecting delivers found" true (ds <> []);
  List.iter
    (fun i ->
      (match evs.(i).Event.body with
      | Event.Deliver { src = 0; _ } -> ()
      | _ -> Alcotest.fail "connecting edge is not a deliver from p0");
      check_int "at the growth round" 2 evs.(i).Event.time)
    ds;
  check "a connecting deliver lies in an observer's cone" true
    (List.exists (String.ends_with ~suffix:"(in cone)") (vias (after_entry lines)))

(* --- JSONL round-trip --- *)

let test_jsonl_round_trip () =
  let n = 3 and rounds = 3 in
  let faults = Faults.of_events ~n [ Faults.Crash { pid = 2; round = 2 } ] in
  let path = Filename.temp_file "ftss_prov" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let obs = Obs.create () in
      Obs.add_sink obs (Sink.jsonl_file path);
      let _trace = Runner.run ~obs ~faults ~rounds counter_protocol in
      Obs.close obs;
      match Prov.load path with
      | Error msg -> Alcotest.failf "load: %s" msg
      | Ok t ->
        check "n inferred, crash recorded" true
          (Pidset.equal (Prov.inferred_correct t) (Pidset.remove 2 (Pidset.full n)));
        (* A numeric selector is the event's position in the stream. *)
        (match Prov.resolve t (Prov.Id 5) with
        | Ok [ i ] -> check_int "id resolves to its stream index" 5 i
        | Ok _ | Error _ -> Alcotest.fail "id did not resolve");
        check "ids past the end are rejected" true
          (Result.is_error (Prov.resolve t (Prov.Id (Prov.length t)))))

(* --- selector parsing --- *)

let test_selector_parsing () =
  check "last-decide" true (Prov.parse_target "last-decide" = Ok Prov.Last_decide);
  check "last-window" true
    (Prov.parse_target "last-window" = Ok Prov.Last_window_close);
  check "numeric id" true (Prov.parse_target "17" = Ok (Prov.Id 17));
  check "suspect pair" true
    (Prov.parse_target "suspect:1,2" = Ok (Prov.Suspect (1, 2)));
  check "garbage rejected" true (Result.is_error (Prov.parse_target "warp"));
  check "malformed suspect rejected" true
    (Result.is_error (Prov.parse_target "suspect:1"))

(* --- DOT export --- *)

let test_dot_export () =
  let n = 3 and rounds = 2 in
  let _trace, t, _ = run_indexed ~rounds (Faults.of_events ~n []) in
  match Prov.last_at t 0 with
  | None -> Alcotest.fail "no events"
  | Some last ->
    let cone = Prov.cone t [ last ] in
    let dot = Prov.to_dot ~targets:[ last ] t cone in
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    check "digraph" true (contains "digraph" dot);
    check "process lanes as clusters" true (contains "cluster" dot);
    check "target highlighted" true (contains "gold" dot);
    check "has edges" true (contains "->" dot)

(* --- asynchronous pairing --- *)

let test_async_consensus_smoke () =
  let open Ftss_async in
  let n = 3 in
  let config =
    {
      (Sim.default_config ~n ~seed:7) with
      Sim.gst = 50;
      horizon = 1500;
      tick_interval = 10;
    }
  in
  let obs, events = Test_obs.collecting () in
  let oracle =
    Ewfd.make (Rng.create 3) ~n
      ~crashed:(fun _ -> None)
      ~gst:config.Sim.gst ~trusted:0 ~noise:0.1
  in
  let _result =
    Sim.run ~obs config
      (Consensus.process ~obs ~n ~style:Consensus.self_stabilizing
         ~propose:(fun p i -> (100 * i) + p)
         ~detector:(Esfd.Oracle oracle) ())
  in
  let t = Prov.of_events (events ()) in
  check_pairing "async consensus trace" t (Array.of_list (events ()));
  match Prov.resolve t Prov.Last_decide with
  | Error msg -> Alcotest.failf "no decide to explain: %s" msg
  | Ok targets ->
    let cone = Prov.cone t targets in
    check "decide has a non-trivial causal past" true (List.length cone > 10);
    (* A decision in round-based consensus rests on messages from a
       quorum: the cone must span more than the decider's own lane. *)
    check "cone spans several processes" true
      (List.length (List.sort_uniq compare (List.filter_map (Prov.located t) cone)) >= 2)

(* The service tower under a corruption storm and an omission window:
   point sends, self-sends, drops and repair traffic all pair soundly. *)
let test_service_storm_pairing () =
  let module Service = Ftss_service.Service in
  let module Workload = Ftss_service.Workload in
  let n = 4 in
  let wl =
    Workload.create ~n
      { Workload.default_spec with Workload.ops = 300; window = 300; seed = 5 }
  in
  let params =
    {
      (Service.default_params ~n ~seed:9) with
      Service.faults =
        { Service.no_faults with storms = [ (150, 2) ]; omission = [ (50, 120, 0.2) ] };
    }
  in
  let obs, events = Test_obs.collecting () in
  let _report = Service.run ~obs ~wl params in
  let t = Prov.of_events (events ()) in
  let count kind = List.length (List.filter (fun ev -> Event.kind ev = kind) (events ())) in
  check "the storm corrupted replicas" true (count "corrupt" > 0);
  check "the omission window dropped messages" true (count "drop" > 0);
  check_pairing "service storm trace" t (Array.of_list (events ()))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "prov",
      [
        tc "cones match Causality over the corpus" `Slow test_differential_against_causality;
        tc "omitted messages are pruned, blame chains" `Quick test_drop_pruning;
        tc "growth rounds and connecting delivers" `Quick test_growth_and_connecting_delivers;
        tc "jsonl round-trips through load" `Quick test_jsonl_round_trip;
        tc "selector parsing" `Quick test_selector_parsing;
        tc "dot export renders the cone" `Quick test_dot_export;
        tc "async consensus decide explains" `Quick test_async_consensus_smoke;
        tc "service storm trace pairs soundly" `Quick test_service_storm_pairing;
      ] );
  ]
