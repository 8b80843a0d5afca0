(** Reading trace files back: the [ftss trace] summarizer.

    Loads a JSON Lines event file written by {!Sink.jsonl_file} and
    answers the questions the experiments care about — who suspected whom
    and when, how fast each coterie-stable window stabilized, and which
    links dropped messages under whose blame. *)

type t

(** Parse a JSON Lines file. Blank lines are skipped; a malformed line or
    an unrecognizable event record is an error naming the line number. *)
val load : string -> (t, string) result

val events : t -> Event.t list

(** The full report: event census, windows with measured [d] and their
    maximum, per-process suspicion timeline, the fuzzer's final coverage
    and its growth in ten cells by execution count, service totals with
    one line per recovery episode, and the omission blame matrix (per
    directed link, the drop count and the first drop's blamed
    endpoint). *)
val pp : Format.formatter -> t -> unit
