(** The paper's three notions of solving a problem, as executable checks
    over recorded histories (Definitions 2.1, 2.2 and 2.4), plus
    measurement helpers used by the benchmark harness.

    All checks are evaluated against one concrete history (the definitions
    quantify over all consistent histories; the test-suite and benchmark
    harness supply large families of adversarially- and randomly-generated
    histories). *)

(** {2 Test oracles}

    Defs. 2.1 and 2.2 have no caller outside the tests: every experiment
    and checker gates on Def. 2.4 ({!ftss_solves}). The tests keep them
    as oracles that put all three verdicts side by side on one history
    (failure-free round agreement satisfies each). *)

(** [ft_solves spec trace] — Def. 2.1: Σ(H, F(H,Π)) on the whole history,
    for a system with process failures but no systemic failures. *)
val ft_solves : ('s, 'm) Spec.t -> ('s, 'm) Ftss_sync.Trace.t -> bool

(** [ss_solves spec ~stabilization trace] — Def. 2.2: Σ(H', ∅) where H' is
    the [stabilization]-suffix, for a system with systemic failures but no
    process failures. Vacuously true when the history is not longer than
    the stabilization time. *)
val ss_solves :
  ('s, 'm) Spec.t -> stabilization:int -> ('s, 'm) Ftss_sync.Trace.t -> bool

(** [ftss_solves spec ~stabilization trace] — Def. 2.4 (piece-wise
    stability). For every maximal interval [x..y] of prefix lengths on
    which the coterie is constant (between destabilizing events), and every
    sub-history H3 = rounds [x + stabilization + 1 .. y], Σ(H3, F) must be
    satisfied. Intervals shorter than the stabilization time impose no
    obligation.

    The sub-history quantification follows the definition: the coterie of
    H1·H2 equals the coterie of H1·H2·H3 exactly when the prefix coterie is
    constant over [|H1·H2| .. |H1·H2·H3|] (prefix coteries are monotone),
    and |H2| >= stabilization places |H1·H2| at least [stabilization]
    rounds after the latest destabilizing event. Σ is monotone under
    history restriction for every spec in this repository, so checking the
    maximal H3 suffices. *)
val ftss_solves :
  ('s, 'm) Spec.t -> stabilization:int -> ('s, 'm) Ftss_sync.Trace.t -> bool

(** [measured_stabilization spec trace] measures the protocol's actual
    stabilization time on this history: the smallest d such that for every
    maximal coterie-stable interval [x..y], Σ holds on rounds
    [x + d + 1 .. y] (an empty obligation window counts as satisfied, as
    in Def. 2.4). A protocol that ftss-solves Σ with stabilization time r
    measures at most r on every consistent history whose stable windows
    are long enough to impose obligations; a measurement equal to a
    window's full length [y - x] means no useful work was accomplished in
    that window. *)
val measured_stabilization :
  ('s, 'm) Spec.t -> ('s, 'm) Ftss_sync.Trace.t -> int

(** [measured_per_window spec trace] is the per-window decomposition of
    {!measured_stabilization}: each maximal coterie-stable interval
    [(x, y)] paired with the least [d] discharging Σ on
    [x + d + 1 .. y]. {!measured_stabilization} is the maximum of the
    measured column (0 when there are no windows). The observability
    layer emits one window-open/window-close event pair per entry. *)
val measured_per_window :
  ('s, 'm) Spec.t -> ('s, 'm) Ftss_sync.Trace.t -> ((int * int) * int) list

(** [stable_windows trace] exposes the maximal coterie-stable intervals
    [(x, y)] of the history (prefix-length coordinates), for reporting. *)
val stable_windows : ('s, 'm) Ftss_sync.Trace.t -> (int * int) list

(** One history's Def. 2.4 verdict with its measurement. *)
type assessment = {
  solves : bool;  (** [ftss_solves spec ~stabilization trace] *)
  measured : int;  (** [measured_stabilization spec trace] *)
  windows : int;  (** [List.length (stable_windows trace)] *)
}

(** [assess spec ~stabilization trace] is all three from one causality
    analysis of [trace]. Raises [Invalid_argument] on a negative
    [stabilization]. *)
val assess : ('s, 'm) Spec.t -> stabilization:int -> ('s, 'm) Ftss_sync.Trace.t -> assessment
