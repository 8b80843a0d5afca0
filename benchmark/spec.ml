(* The benchmark's vocabulary: workload names and every metric it prints,
   with unit, direction and (end-to-end only) regression bound. BENCHMARK.json
   at the repository root states the same table for outside tools; the
   smoke test ([main.exe --smoke]) fails if the two drift apart. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better; bound : float option }

let workloads = [ "tower_steady"; "tower_storm"; "tower_sharded"; "check_sweep" ]

let e name unit better bound = { name; unit; better; bound = Some bound }
let l name unit better = { name; unit; better; bound = None }

(* Printed by every untraced run, on every workload; none of them can read
   0. An "item" is a committed client op on tower_* and a checked
   adversary case on check_sweep. The bounds sit above the spread of
   run medians over ten seeds on a shared 2-vCPU VM, whose CPU speed
   drifts by tens of percent over minutes (README.md); [peak_heap_mb]
   repeats to 0.1% on one domain but moves with GC timing on two. *)
let end_to_end =
  [
    e "setup_s" "s" Lower 0.25;
    e "items_per_s" "1/s" Higher 0.25;
    e "peak_heap_mb" "MB" Lower 0.20;
  ]

(* Printed by every traced run, on every workload; a layer the workload
   does not run reads 0. Layer busy times are shares of [traced_wall_ms]
   (the traced call's wall time), so a layer that is absent reads 0 %
   rather than a constant 0 ms. *)
let per_layer =
  let tob_calls kind =
    [
      l (Printf.sprintf "tob.%s.calls" kind) "count" Lower;
      l (Printf.sprintf "tob.%s.pct" kind) "%" Lower;
      l (Printf.sprintf "tob.%s.minor_words" kind) "words" Lower;
    ]
  in
  [
    l "traced_wall_ms" "ms" Lower;
    l "trace_overhead_pct" "%" Lower;
    l "gc.minor_words_per_item" "words" Lower;
    l "gc.minor_collections" "count" Lower;
    l "gc.major_collections" "count" Lower;
    l "sim.events" "count" Lower;
    l "sim.self_pct" "%" Lower;
    l "sim.delivered_per_op" "msgs/op" Lower;
  ]
  @ List.concat_map tob_calls
      [
        "deliver.cons"; "deliver.decide"; "deliver.fwd"; "deliver.tag"; "deliver.pull";
        "tick"; "submit";
      ]
  @ [
      l "tob.slots" "count" Lower;
      l "tob.ops_per_slot" "ops" Higher;
      l "tob.msgs_per_slot" "msgs" Lower;
      l "tob.unique_frac" "fraction" Higher;
      l "tob.recoveries" "count" Lower;
      l "kv.replay_ops_per_s" "ops/s" Higher;
      l "esfd.tick.calls" "count" Lower;
      l "esfd.tick.pct" "%" Lower;
      l "esfd.receive.calls" "count" Lower;
      l "esfd.receive.pct" "%" Lower;
      l "service.post_run_pct" "%" Lower;
      l "latency.p50_ticks" "ticks" Lower;
      l "latency.p99_ticks" "ticks" Lower;
      l "latency.p999_ticks" "ticks" Lower;
      l "latency.mean_ticks" "ticks" Lower;
      l "stage.submit_wait_ticks_mean" "ticks" Lower;
      l "stage.order_ticks_mean" "ticks" Lower;
      l "stage.apply_ticks_mean" "ticks" Lower;
      l "storm.resume_ticks" "ticks" Lower;
      l "storm.heal_ticks" "ticks" Lower;
      l "shards.speedup" "x" Higher;
      l "shards.parallel_efficiency" "fraction" Higher;
      l "property.run.pct" "%" Lower;
      l "property.verdict.pct" "%" Lower;
      l "property.verdict.calls" "count" Lower;
      l "property.states_per_case" "count" Lower;
      l "explore.self_pct" "%" Lower;
      l "explore.dedup_rate" "fraction" Higher;
      l "explore.utilization.d0" "fraction" Higher;
      l "explore.utilization.d1" "fraction" Higher;
      l "explore.parallel_efficiency" "fraction" Higher;
    ]

let better_name = function Lower -> "lower" | Higher -> "higher"

(* [check_file path] compares the table above with BENCHMARK.json and
   returns one message per difference. *)
let check_file path =
  let module J = Ftss_obs.Json in
  let text = In_channel.with_open_bin path In_channel.input_all in
  match J.of_string text with
  | Error e -> [ Printf.sprintf "%s: %s" path e ]
  | Ok doc ->
    let field key j = Option.value ~default:J.Null (J.member key j) in
    let str key j = Option.value ~default:"?" (J.to_string_opt (field key j)) in
    let items key = Option.value ~default:[] (J.to_list_opt (field key doc)) in
    let render (m : metric) =
      Printf.sprintf "%s [%s, %s%s]" m.name m.unit (better_name m.better)
        (match m.bound with Some b -> Printf.sprintf ", bound %g" b | None -> "")
    in
    let of_json j =
      render
        {
          name = str "name" j;
          unit = str "unit" j;
          better = (if str "better" j = "higher" then Higher else Lower);
          bound = J.to_float_opt (field "bound" j);
        }
    in
    let diff what ours theirs =
      List.filter_map
        (fun x ->
          if List.mem x theirs then None
          else Some (Printf.sprintf "%s: %s is not in %s" what x path))
        ours
      @ List.filter_map
          (fun x ->
            if List.mem x ours then None
            else Some (Printf.sprintf "%s: %s in %s is not printed" what x path))
          theirs
    in
    diff "workload" workloads (List.map (str "name") (items "workloads"))
    @ diff "end_to_end" (List.map render end_to_end) (List.map of_json (items "end_to_end"))
    @ diff "per_layer" (List.map render per_layer) (List.map of_json (items "per_layer"))
