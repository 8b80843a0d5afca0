(** Round-based protocols for the perfectly synchronous model (paper §2.1).

    A computation proceeds in rounds numbered from 1. At the start of each
    round every non-crashed process broadcasts one message derived from its
    state; at the end of the round it applies its transition function to the
    multiset of messages it received during the round. Per the paper's
    footnote 1, every process always receives its own broadcast; omission
    failures only affect messages between distinct processes. *)

open Ftss_util

(** A message as delivered: the payload together with its true sender.
    (Senders are authenticated by the synchronous network; omission faults
    can suppress messages but not forge them.) *)
type 'm delivery = { src : Pid.t; payload : 'm }

type ('s, 'm) t = {
  name : string;
  init : Pid.t -> 's;
      (** The initial state specified by the protocol. A systemic failure
          replaces this with an arbitrary state (see {!Runner.run}'s
          [corrupt] argument). *)
  broadcast : Pid.t -> 's -> 'm;
      (** The message broadcast to all processes at the start of a round. *)
  step : Pid.t -> 's -> 'm delivery list -> 's;
      (** End-of-round transition. The delivery list is ordered by sender
          pid and always contains the process's own broadcast. *)
}
