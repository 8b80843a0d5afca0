(** A deterministic priority queue of timed events.

    Events are ordered by (time, insertion sequence): ties in time resolve
    in insertion order, which makes every simulation replayable from its
    seed alone.

    The implementation is a bucketed calendar queue over an intrusive
    node arena: a power-of-two ring of width-one time buckets holding
    FIFO lists of preallocated nodes, an insertion-ordered overflow list
    for events beyond the current window (promoted in bulk on epoch
    rollover), and a freelist that recycles node slots — push and pop
    are O(1) amortized and allocate nothing on the OCaml heap in steady
    state. The original binary heap survives as {!Reference}, the model
    the differential tests pin this structure to. *)

type 'e t

(** [create ?initial_capacity ()] makes an empty queue.
    [initial_capacity] (default 256) sizes the node arena and the bucket
    ring for the expected standing population; both grow on demand and
    never shrink. *)
val create : ?initial_capacity:int -> unit -> 'e t

(** [push_tagged t ~time ~tag e] schedules [e] and stores an arbitrary
    [int] tag alongside it, read back through {!out_tag} — the
    allocation-free channel the simulator packs event kind and pids
    into. [time] may not precede the last popped event's time (0 before
    any pop): raises [Invalid_argument] on such a push. *)
val push_tagged : 'e t -> time:int -> tag:int -> 'e -> unit

(** [pop_step t] removes the earliest event without allocating: it
    returns [false] on an empty queue, otherwise [true] with the event
    readable through {!out_time}, {!out_tag} and {!out_payload} until
    the next queue operation. *)
val pop_step : 'e t -> bool

val out_time : 'e t -> int
val out_tag : 'e t -> int
val out_payload : 'e t -> 'e

(** The seed binary-heap implementation (boxed entries, O(log n) sift
    per operation), kept as the reference model for differential tests
    and as the "before" side of the E16 queue benchmark. *)
module Reference : sig
  type 'e t

  val create : unit -> 'e t
  val push : 'e t -> time:int -> 'e -> unit
  val pop : 'e t -> (int * 'e) option
end
