(** Comparing benchmark gauge snapshots: the [ftss bench-diff] engine.

    A snapshot is the JSON written by the bench harness — either the
    schema-2 envelope [{"experiment", "schema": 2, "counters", "gauges",
    "histograms"}] or the bare schema-1 [Metrics.to_json] form (accepted
    for committed baselines that predate the envelope). Only gauges are
    compared: the harness stores every published figure as a gauge.

    Whether a change is a regression depends on the gauge's unit, which
    its name carries: ["...per_sec..."] gauges are higher-better,
    ["ns_per_call"] / ["elapsed"] / ["seconds"] gauges are lower-better,
    and anything else is informational — shown in the table, never
    flagged. *)

type snapshot = {
  experiment : string option;  (** [None] on schema-1 files *)
  schema : int;  (** 1 when the file has no envelope *)
  gauges : (string * float) list;
}

(** Read and decode a snapshot file. *)
val load : string -> (snapshot, string) result

type direction = Lower_better | Higher_better | Informational

type entry = {
  name : string;
  old_value : float;
  new_value : float;
  dir : direction;
  worse_pct : float;
      (** percent by which NEW is worse than OLD along [dir]; [<= 0]
          when no worse; [0.] for informational gauges or non-positive
          values *)
}

type report = {
  old_experiment : string option;
  new_experiment : string option;
  entries : entry list;  (** gauges present in both, OLD's order *)
  only_old : string list;
  only_new : string list;
}

val diff : old_:snapshot -> new_:snapshot -> report

(** Entries whose [worse_pct] exceeds [max_regress] percent (direction
    aware; informational gauges never regress). *)
val regressions : report -> max_regress:float -> entry list

(** The comparison table; entries beyond [max_regress] are marked
    [REGRESSION]. *)
val pp : ?max_regress:float -> Format.formatter -> report -> unit
