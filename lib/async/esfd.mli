(** The Eventually Strong failure detector of Figure 4 — the paper's
    initialization-free ◇W → ◇S transform (Theorem 5).

    For every subject s, each process keeps a counter [num[s]] and a
    status [state[s]] ("dead"/"alive"):

    - when the underlying ◇W detector flags s: [num[s]+1, dead];
    - when the process {e is} s: [num[s]+1, alive];
    - continually: broadcast [(s, num[s], state[s])];
    - on delivery of [(s, n, st)] with [n > num[s]]: adopt [(n, st)].

    The protocol needs no initialization: whatever junk a systemic failure
    leaves in the counters is washed out because the merge rule lifts
    everyone to the maximum and live subjects / detecting observers keep
    incrementing past it. The first half of this module is the pure state
    machine. {!Layer} is the one place where a ◇W {!source} drives it
    over the network: {!process} runs the layer alone, {!Consensus} and
    the service tower embed it, and {!analyze} checks Theorem 5's two
    properties on the observation log. *)

open Ftss_util

type status = Dead | Alive

type t
(** One process's detector state (num / state arrays). *)

type entry = { subject : Pid.t; num : int; status : status }

type msg = entry list
(** One broadcast: the process's full (subject, num, state) table. The
    paper sends one message per subject; batching them into a single
    network message is delivery-equivalent and keeps event counts low. *)

(** [create ~n] is the "good" initial state: all alive at num 0. *)
val create : n:int -> t

(** [corrupt rng ~num_bound t] draws arbitrary statuses, then arbitrary
    counters in [0, num_bound) — the systemic failure. *)
val corrupt : Rng.t -> num_bound:int -> t -> t

(** [tick t ~self ~detect] performs the spontaneous actions of Figure 4
    for one timer firing: increments for the process itself and for every
    subject flagged by [detect], then returns the new state and the
    message to broadcast. *)
val tick : t -> self:Pid.t -> detect:(Pid.t -> bool) -> t * msg

(** [receive t msg] applies the merge rule to every entry. *)
val receive : t -> msg -> t

(** [suspected t s] is true iff [state[s] = Dead]. *)
val suspected : t -> Pid.t -> bool

(** {2 Running it over the network} *)

(** Where the transform's ◇W input comes from. Theorem 5 holds for any
    Eventually Weak source, and a new one (an adversarial detector, say)
    is one more case here. *)
type source =
  | Oracle of Ewfd.t  (** the scripted oracle, as the paper assumes *)
  | Heartbeats
      (** the {!Heartbeat} implementation (timeout 30, backoff 20): no
          oracle anywhere, the detector runs on partial synchrony alone *)

(** The transform together with its ◇W source. *)
module Layer : sig
  type t

  type nonrec msg = Hb of Heartbeat.msg | Fd of msg

  (** [create ~n source] is the good initial state. *)
  val create : n:int -> source -> t

  (** [tick ?obs ctx ~wrap t] is one timer firing: under [Heartbeats] it
      broadcasts a heartbeat and re-evaluates the deadlines, then it
      performs the transform's tick against the source and broadcasts the
      table. [wrap] embeds the layer's messages in the caller's. When
      [obs] is given, changes to the suspect set are emitted as
      [Suspect_add]/[Suspect_remove] events, before the table's send. *)
  val tick : ?obs:Ftss_obs.Obs.t -> ('m, 'o) Sim.ctx -> wrap:(msg -> 'm) -> t -> t

  (** [receive ?obs ctx ~src m t] records a heartbeat or merges a table,
      emitting suspect-set changes as {!tick} does. *)
  val receive : ?obs:Ftss_obs.Obs.t -> ('m, 'o) Sim.ctx -> src:Pid.t -> msg -> t -> t

  (** [suspected t s] is the ◇S output: the transform suspects [s]. *)
  val suspected : t -> Pid.t -> bool

  (** [corrupt rng ~num_bound t] is the systemic failure of both halves:
      the transform's statuses and counters (in [0, num_bound)), then,
      under [Heartbeats], arbitrary suspicion flags, timeouts (1..150)
      and last-heard times (below 10,000). *)
  val corrupt : Rng.t -> num_bound:int -> t -> t
end

type observation = Suspects of Pidset.t
(** Logged on every tick and whenever a message changes the suspect set. *)

(** [process ?obs ~n ~source ()] is the layer alone as a Sim process. *)
val process :
  ?obs:Ftss_obs.Obs.t ->
  n:int ->
  source:source ->
  unit ->
  (Layer.t, Layer.msg, observation) Sim.process

(** Each field is {!Sim.settle} over the correct processes' suspect
    sets. *)
type report = {
  convergence : Sim.verdict;  (** both ◇S properties at once *)
  completeness : Sim.verdict;
      (** a suspect set violates when it misses a crashed process *)
  accuracy : Sim.verdict;
      (** a suspect set violates when it holds the trusted process or,
          without one, the candidate: the earliest-cleared correct one *)
}

(** [analyze ?trusted result ~config] evaluates the ◇S properties on a
    run: strong completeness (eventually {e every} correct process
    suspects every crashed process, permanently) and eventual weak
    accuracy. With [trusted] (Theorem 5 over the oracle, which names the
    process it keeps clear), accuracy is that [trusted] is eventually
    never suspected by any correct process; without it, in the literal
    form, that {e some} correct process is. *)
val analyze :
  ?trusted:Pid.t -> ('s, observation) Sim.result -> config:Sim.config -> report
