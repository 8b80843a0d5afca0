(** Open-workload generator for the service tower: millions of client
    sessions issuing get/put/cas/delete operations against Zipfian keys,
    with periodic burst arrivals. The ops are generated from the seed up
    front (op ids are arrival-ordered indices), so runs are replayable
    and generation is off the simulation hot path. Besides its op
    records a workload keeps O(window + ops/64) words of arrival data;
    an op's arrival tick and replica are computed on demand. *)

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

(** [create ~n spec] generates the ops, spread over [n] replicas by
    session. *)
val create : n:int -> spec -> t

val spec : t -> spec
val total : t -> int

(** [op t i] is operation [i]; ids equal indices and ascend in arrival
    order. *)
val op : t -> int -> Kv.op

(** [arrival t i] is op [i]'s arrival tick in [[1, window]],
    non-decreasing in [i]: a binary search within op [i]'s bucket of 64
    ops, about one probe at E14's rates. Raises [Invalid_argument]
    outside [[0, total t)]. *)
val arrival : t -> int -> int

(** [origin t i] is the replica op [i]'s session is attached to:
    [i mod sessions mod n]. *)
val origin : t -> int -> Ftss_util.Pid.t

(** [per_replica t p] is the ids of the ops submitted at replica [p],
    ascending by arrival. The first call builds every replica's array
    (O(total) time, one word per op) and caches it in [t]; later calls
    are O(1). Do not mutate the result. *)
val per_replica : t -> Ftss_util.Pid.t -> int array
