(** Open-workload generator for the service tower: millions of client
    sessions issuing get/put/cas/delete operations against Zipfian keys,
    with periodic burst arrivals. The whole trace is precomputed from the
    seed (arrival times ascend, op ids are arrival-ordered indices), so
    runs are replayable and generation is off the simulation hot path. *)

type spec = {
  ops : int;
  sessions : int;
  keys : int;
  theta : float;  (** Zipf skew; 0.0 = uniform *)
  window : int;  (** arrivals span ticks [1, window] *)
  burst_every : int;  (** burst period in ticks; 0 disables bursts *)
  burst_len : int;
  burst_mult : float;  (** arrival-rate multiplier inside a burst *)
  seed : int;
}

val default_spec : spec

type t

(** [create ~n spec] precomputes the full trace, partitioned over [n]
    replicas by session. *)
val create : n:int -> spec -> t

val spec : t -> spec
val total : t -> int

(** [op t i] is operation [i]; ids equal indices and ascend in arrival
    order. *)
val op : t -> int -> Kv.op

val arrival : t -> int -> int
val origin : t -> int -> Ftss_util.Pid.t

(** [per_replica t p] is the ids of the ops submitted at replica [p],
    ascending by arrival. *)
val per_replica : t -> Ftss_util.Pid.t -> int array
