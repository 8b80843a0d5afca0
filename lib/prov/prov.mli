(** Causal provenance over event traces: the [ftss explain] engine, and
    the one happened-before relation over recorded events.

    {!of_events} indexes an event stream into a happened-before DAG:
    program-order edges chain each process's located events, message
    edges pair every [Deliver] with its originating [Send] by per-link
    FIFO (a synchronous broadcast, [dst = None], puts one in-flight copy
    on every link), and a [Drop] {e consumes} its suppressed send
    without creating an edge into the receiver — omitted messages are
    thereby pruned from every cone by construction, while the drop node
    itself still points at the send so blame can be chained offline.
    Global events (round boundaries, windows, checker/fuzzer lifecycle)
    are join nodes: they descend from everyone's latest event but
    advance no process's lane, so located cones never pass through them.

    On a synchronous trace the cone relation coincides exactly with
    [Ftss_history.Causality.happened_before] — the runner emits all of a
    round's sends before its delivers, so backward reachability from p's
    last event at the end of round r reproduces the knowledge set
    K_r(p). The test suite checks this differentially over whole
    adversary corpora. On asynchronous traces FIFO pairing may
    misattribute a delivery to an earlier same-link send when the
    transport reordered; the sender's program order corrects the
    knowledge sets (the later send dominates the earlier), so cones are
    exact at process granularity even when individual message
    attribution is not. *)

open Ftss_util
open Ftss_obs

type t

(** Index a trace, e.g. the events of a {!Trace_summary.load}ed file. *)
val of_events : Event.t list -> t

val length : t -> int

(** Immediate causal parents (event ids) of event [i]. A test oracle
    hook: the DAG soundness test checks every edge against the event
    stream alone; production reads the DAG only through {!cone}. *)
val parents : t -> int -> int list

(** The process whose lane event [i] belongs to; [None] for drops and
    global events. *)
val located : t -> int -> Pid.t option

(** [cone t targets] is the happened-before cone: every event backward
    reachable from [targets] (inclusive), ascending. *)
val cone : t -> int list -> int list

(** {2 Knowledge and coteries}

    The queries {!pp_explain} is built from. Outside this module only
    the tests call them: the differential test pins {!knows}, {!coterie}
    and {!growth} to [Ftss_history.Causality], the oracle, over a whole
    adversary corpus. *)

(** The last event on [p]'s lane with [time <= upto], if any. *)
val last_at : t -> ?upto:int -> Pid.t -> int option

(** [knows t ~round p] is K_round(p): the processes with an event in the
    cone of [p]'s last event at [time <= round], [p] included. Matches
    [Causality.knows] on synchronous traces. *)
val knows : t -> round:int -> Pid.t -> Pidset.t

(** The full universe minus the processes with a [Crash] event — the
    correct set when the trace does not declare one. *)
val inferred_correct : t -> Pidset.t

(** Def. 2.3 over the [round]-prefix: processes happened-before every
    process of [correct]; the full set when [correct] is empty. *)
val coterie : t -> round:int -> correct:Pidset.t -> Pidset.t

(** Destabilizing events: the times [r >= 1] at which the prefix coterie
    grew, with the entering processes. *)
val growth : t -> correct:Pidset.t -> (int * Pidset.t) list

type target =
  | Last_decide
  | Suspect of Pid.t * Pid.t
  | Last_window_close
  | Id of int  (** the event's 0-based position in the trace *)

(** Parse an [--event] selector: [<id>], [last-decide], [last-window],
    or [suspect:<p>,<q>] (the last suspicion change of p about q). *)
val parse_target : string -> (target, string) result

val resolve : t -> target -> (int list, string) result

(** Graphviz rendering of the event set [ids] (typically a cone):
    process lanes as clusters, message edges in blue, drops in red,
    [targets] highlighted. *)
val to_dot : ?targets:int list -> t -> int list -> string

(** Human-readable justification of [targets]: the cone census per
    process, the omissions pruned from it with their blame chains, and
    the destabilizing (coterie-growth) events with their connecting
    deliver edges. *)
val pp_explain : Format.formatter -> t * int list -> unit
