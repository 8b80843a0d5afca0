(** Bounded exhaustive enumeration of adversaries.

    The theorem checks in E1-E10 sample randomized fault schedules, so a
    "pass" is only as strong as the adversaries the RNG happened to draw.
    The paper's claims (Theorems 3/4/5) quantify over {e all} schedules
    with at most [f] general-omission-faulty processes and {e all} initial
    states. For small parameters both spaces can be made finite and walked
    completely:

    - {b schedules}: each faulty process is assigned one adversarial
      behaviour from a finite catalogue — a crash round, a send-omission
      (mute) interval, a receive-omission (deaf) interval, a general-
      omission (isolate) interval, or a single point send/receive drop —
      and every subset of at most [f] processes is considered;
    - {b corruptions}: arbitrary initial states are covered by canonical
      corruption classes (clean, all-zero, all-maximal, parked at a common
      round, per-pid-distinct) — the representative shapes systemic
      failures take for round-variable-style state. The classes are
      exhaustive up to the symmetries the protocols under test actually
      distinguish: equal-everywhere values (any magnitude) and
      distinct-everywhere values.

    A {!t} (one schedule plus one corruption class) is called a {e case};
    cases are indexable, so the whole space can be enumerated and counted
    in closed form ({!count}). *)

open Ftss_util

(** One faulty process's behaviour. Rounds are 1-based. *)
type behavior =
  | Crash of int  (** crash at that round *)
  | Mute of int * int  (** send omission over an inclusive round interval *)
  | Deaf of int * int  (** receive omission over an inclusive interval *)
  | Isolate of int * int  (** mute and deaf combined *)
  | Send_drop of int * Pid.t  (** [(round, dst)]: drop the one message owner->dst *)
  | Recv_drop of int * Pid.t  (** [(round, src)]: drop the one message src->owner *)

(** Canonical corruption class applied to every process's initial state. *)
type corruption =
  | Clean  (** no systemic failure *)
  | Zero  (** every round variable forced to 0 *)
  | Max  (** every round variable forced to a huge common value *)
  | Parked of int  (** every round variable parked at the given round *)
  | Distinct  (** pairwise-distinct per-pid values *)

type params = {
  n : int;  (** system size *)
  rounds : int;  (** schedule horizon (and simulated rounds) *)
  f : int;  (** fault budget: schedules touch at most [f] processes *)
  intervals : bool;  (** include mute/deaf/isolate interval behaviours *)
  drops : bool;  (** include single point-drop behaviours *)
}

(** A case: a fault schedule (at most one behaviour per faulty process,
    pids ascending) plus a corruption class. *)
type t = {
  params : params;
  behaviors : (Pid.t * behavior) list;
  corruption : corruption;
}

(** [validate params] raises [Invalid_argument] unless [n >= 2],
    [rounds >= 1], [0 <= f < n] and the space's case count fits an
    array ([Sys.max_array_length]); the message names the sizes. *)
val validate : params -> unit

(** Size of the per-process behaviour catalogue:
    [rounds] crashes, plus (when [intervals]) [3 * rounds*(rounds+1)/2]
    intervals, plus (when [drops]) [2 * rounds * (n-1)] point drops. *)
val behaviors_per_process : params -> int

(** The corruption classes explored: clean, zero, max, parked at
    [params.rounds], distinct — 5 classes. *)
val corruptions : params -> corruption list

(** Total cases: the [sum_{k=0..f} C(n,k) * behaviors_per_process^k]
    schedules, each under every corruption class. *)
val count : params -> int

(** [get params i] is the [i]-th case, [0 <= i < count params].
    Deterministic: equal arguments yield structurally equal cases.
    Production sweeps read whole spaces through {!enumerate}; [get] is
    also the decoder the differential test samples against its reference
    over spaces too large to enumerate. *)
val get : params -> int -> t

(** The whole space, [Array.init (count params) (get params)]. Raises
    [Invalid_argument], naming the sizes, before it allocates anything
    when the space spans more than 18,518,518 cases: about 216 bytes a
    case (the pinned n=4 r=6 f=2 theorem-4 sweep peaks at 71.8 MB for
    332,855), so a sweep at the cap fits in 4 GB. *)
val enumerate : params -> t array

(** Compile a case's schedule into a {!Ftss_sync.Faults.t}: each
    behaviour, in order, becomes its {!Ftss_sync.Faults.event}s, handed
    to {!Ftss_sync.Faults.rebuild} over [rounds] without a list. Point
    drops are charged to the behaviour's owner (a [Blame] event precedes
    the [Drop]), so receive omissions blame the receiver as the paper's
    general-omission model requires. Raises [Invalid_argument] on a
    behaviour outside the case's pids or rounds. *)
val to_faults : t -> Ftss_sync.Faults.t

(** [corrupt_int corruption p v] applies the class to an integer round
    variable ([v] is the clean value, returned unchanged by [Clean]). *)
val corrupt_int : corruption -> Pid.t -> int -> int

(** {2 Canonicalization under pid permutation}

    Relabelling processes maps a case to an adversarially equivalent one:
    the corruption classes are permutation-closed and a schedule's
    behaviours mention pids only as labels. {!canonical} picks one
    deterministic representative of each such orbit, so an explorer can
    collapse permutation-symmetric adversaries instead of enumerating
    them (sound for properties whose verdict is invariant under pid
    relabelling — the golden equivalence suite pins this for the
    corpora the checker gates on). *)

(** The orbit representative: the support (behaviour owners plus the
    peers of point drops) is packed onto pids [0..m-1] in rank order and,
    for supports of at most 8 pids, the structurally least case over all
    [m!] relabellings is chosen. Two cases with equal canonical forms are
    pid permutations of each other; the converse holds while the support
    has at most 8 pids, which a budget [f <= 4] guarantees (a support has
    at most [2f] pids, [f] without point drops). Above 8 the form is the
    rank-relabelled case alone, so one orbit may keep several forms:
    theorem 5's crash-only n=10 r=2 f=9 space has such pairs.
    [canonical] is idempotent. *)
val canonical : t -> t

(** {2 Shared prefixes}

    Cases that agree on their first rounds execute those rounds
    identically, so an explorer can simulate them once. Round [r >= 1]'s
    {e digit} is {!Ftss_sync.Faults.atoms} of the case's compiled
    schedule: read off the rows the runner executes, it lists what the
    schedule does at [r] (crashes, send and receive omissions, and the
    point-dropped links nothing else accounts for, a link once per point
    drop that names it) whichever pids are declared faulty. Round 0 is
    the params and corruption class. Equal digits through round [k]
    imply that the two executions are identical through round [k] (same
    states, deliveries, crashes and omissions). *)

(** [shared_prefix a b] is the largest [k <= rounds] such that [a] and
    [b] have equal digits for rounds [0..k], or [-1] when their params
    or corruption classes differ. Nothing in a sweep calls it: the walk
    reads its neighbours' depths off {!prefix_order}, and this pairwise
    comparison is the oracle the tests hold those depths to. *)
val shared_prefix : t -> t -> int

(** A walk over a case array: [order] is a permutation of its indices,
    and [depth.(p)], for [p >= 1], is the depth the case at position [p]
    shares with the one before it,
    [shared_prefix cases.(order.(p - 1)) cases.(order.(p))];
    [depth.(0) = -1]. *)
type walk = { order : int array; depth : int array }

(** [prefix_order cases] sorts the indices of [cases] by their digits,
    round 0 first, so that cases sharing a prefix are adjacent, and reads
    each neighbouring pair's depth off the sort. Every case must lie in
    case 0's space: the same params, [Parked] only at their horizon, and
    at most [f] behaviours that {!to_faults} compiles, so pids below [n]
    and rounds in [1..rounds]; otherwise it raises [Invalid_argument]
    naming the first case outside.

    Each case gets one key, an atom sequence: atom 0 is the corruption
    class, then come each round's {!Ftss_sync.Faults.atoms} of its
    schedule, compiled into a per-domain scratch
    ({!Ftss_sync.Faults.rebuild}, whose rows are allocated once per
    domain). The atoms come ascending, zero-padded to [f] slots, at
    [bits (5n²)] bits apiece, packed big-endian several to a word (a
    round may straddle two words), so numeric order on the words is the
    digits' order. A stable LSD radix sort orders the keys, 16 bits a
    pass, skipping bits that no key sets; ties keep index order. A
    pair's depth is read off its first differing word: the highest
    differing atom there names the round where the pair parts.
    O(cases × (key words + (rounds + f) × n)) integer work and O(cases ×
    key words) extra words. An array of at least 2^16 cases has its keys
    filled on [domains] domains ({!Ftss_profile.Pool.domains}, default
    1); the result does not depend on their count. *)
val prefix_order : ?domains:int -> t array -> walk

val pp : Format.formatter -> t -> unit
