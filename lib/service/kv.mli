(** The replicated key-value state machine at the top of the service
    tower, and the operation/digest vocabulary shared by every layer.

    A replica applies the committed log deterministically: same log, same
    table, same digest — so equal {!digest}s (or, against corrupted
    incremental state, equal {!recompute_digest}s) at equal log positions
    witness replica convergence. Keys and values are ints; an absent key
    reads as 0 (for [Cas]) but is a distinct state from an explicit
    [put k 0]. *)

type kind = Get | Put | Cas | Delete

type op = {
  id : int;  (** globally unique; the workload generator uses the op index *)
  kind : kind;
  key : int;
  v1 : int;  (** [Put]: new value; [Cas]: expected value *)
  v2 : int;  (** [Cas]: new value; unused otherwise *)
}

(** [mix a b] is the 62-bit avalanche hash every digest here is built
    from (deterministic, non-cryptographic). *)
val mix : int -> int -> int

(** [chain h x] extends an order-{e dependent} digest chain — used for
    log-prefix digests. *)
val chain : int -> int -> int

(** The digest of one op, the unit {!batch_digest} chains. Outside this
    module only the tests read it: the hash pins and the workload pins
    are recorded against it. *)
val op_digest : op -> int

(** Order-dependent digest of one batch (a log entry). *)
val batch_digest : op array -> int

type t

(** [create ?keys ()] is an empty table with room for [keys] live
    entries before it first doubles (none given, or [~keys:0]: 512).
    Its two arrays take [2 * c] words, [c] being the least power of two
    at least [max 1024 (2 * keys)]: the size a default table's doublings
    reach once [keys] distinct keys are live. That is also the worst
    case: when fewer keys ever go live, the presized table still holds
    [2 * c] words where a default one would have stayed smaller.
    Presizing changes no digest and no result. *)
val create : ?keys:int -> unit -> t
val reset : t -> unit

(** The incrementally maintained state digest: an order-independent sum
    of per-entry hashes, updated in O(1) per mutation. *)
val digest : t -> int

(** [apply_batch t ops] executes the operations in order: [Get] reads
    (no state change), [Put] writes [v1], [Cas] writes [v2] iff the
    current value (0 when absent) equals [v1], [Delete] removes the
    key. *)
val apply_batch : t -> op array -> unit

(** [apply_range t ops ~lo ~hi] is [apply_batch t (Array.sub ops lo (hi
    - lo))] without the copy: the way a replica applies a log entry, a
    run of slices of the submitted op arrays. *)
val apply_range : t -> op array -> lo:int -> hi:int -> unit

(** Recompute the digest from the table contents, ignoring the
    incremental field — the audit a transient corruption of either the
    table or the field cannot survive. *)
val recompute_digest : t -> int

(** Fault injection: scramble table entries (keys below [keys]) behind
    the incremental digest's back, sometimes the digest field itself. *)
val corrupt : Ftss_util.Rng.t -> keys:int -> t -> unit
