(** Delta-debugging of a failing case to a minimal counterexample.

    Greedy descent over strictly-size-decreasing reductions: drop a
    behaviour, weaken one (isolate → mute/deaf, trim an interval from
    either end, postpone a crash), or downgrade the corruption class.
    Each accepted reduction must still falsify the property, so the
    result falsifies it too and [Schedule_enum.size] never increases;
    strict decrease guarantees termination. The candidate order is fixed,
    so shrinking is deterministic. *)

(** [shrink ~property case] requires [Property.fails property case] and
    returns a minimal (no candidate still fails) failing case of size
    [<= Schedule_enum.size case]. *)
val shrink : property:Property.t -> Schedule_enum.t -> Schedule_enum.t

(** The descent engine behind [shrink], generic so other counterexample
    representations (the fuzzer's genomes) can reuse it: repeatedly step
    to the first candidate for which [fails] holds, returning the first
    local minimum (no candidate fails). {b Termination contract}: every
    candidate must be strictly smaller than its parent under some
    well-founded measure; [fixpoint] itself does not check this. The
    result preserves [fails] whenever the input satisfied it. *)
val fixpoint :
  fails:('a -> bool) -> candidates:('a -> 'a list) -> 'a -> 'a
