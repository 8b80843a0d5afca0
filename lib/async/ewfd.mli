(** A scripted Eventually Weak failure detector (◇W) oracle.

    The paper's §3 protocol assumes "the Eventually Weak failure detector
    repeatedly sets the predicate detect(s) as long as s is suspected".
    This module supplies that predicate. Behaviour:

    - before [gst]: arbitrary — every observer suspects every other
      process independently at random (the detector may "erroneously
      suspect correct processes");
    - at and after [gst]:
      {ul
      {- {e weak completeness}: for each crashed process s, exactly one
         designated correct observer (the lowest-pid correct process)
         suspects s — "at least one", and deliberately no more, so the
         ◇W → ◇S transform has real work to do;}
      {- {e eventual weak accuracy}: the designated [trusted] correct
         process is suspected by no correct observer;}
      {- other correct processes may keep being falsely suspected at
         random — ◇W permits it, and it stresses the transform.}} *)

open Ftss_util

type t

(** [make rng ~n ~crashed ~gst ~trusted ~noise] builds the oracle.
    [crashed p] is the crash time of [p], if any; [trusted] must be a
    correct process; [noise] is the probability of a spurious suspicion
    (of a non-trusted process after gst; of anyone before). Raises
    [Invalid_argument] if [trusted] is crashed. *)
val make :
  Rng.t ->
  n:int ->
  crashed:(Pid.t -> int option) ->
  gst:int ->
  trusted:Pid.t ->
  noise:float ->
  t

(** [detect t ~at ~observer ~subject] — the paper's detect predicate, as
    sampled by [observer] at time [at]. *)
val detect : t -> at:int -> observer:Pid.t -> subject:Pid.t -> bool
