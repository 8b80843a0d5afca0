(** Replayable counterexample files.

    A shrunk counterexample is serialized to a small S-expression text
    format so it can be attached to a bug report and re-executed
    deterministically with [ftss_cli replay FILE]. Example:

    {v
(ftss-counterexample
 (version 1)
 (property theorem3)
 (inject frozen-exchange)
 (params (n 3) (rounds 3) (f 1) (intervals true) (drops true))
 (corruption distinct)
 (schedule
  (crash (pid 2) (round 1))
  (mute (pid 0) (first 1) (last 2))))
    v}

    Parsing is strict: unknown properties, malformed clauses or
    out-of-range pids/rounds are reported as [Error _], never guessed. *)

(** The minimal S-expression dialect the counterexample files are written
    in — atoms and lists, [;] line comments, strict trailing-input check.
    Shared with [ftss_fuzz]'s corpus and violation files so every
    persisted artefact of the tooling parses the same way. *)
module Sexp : sig
  type t = Atom of string | List of t list

  val pp : Format.formatter -> t -> unit

  (** [parse s] parses exactly one document; leftover non-whitespace
      input is an error, never silently ignored. *)
  val parse : string -> (t, string) result

  (** {1 Clauses}

      A document is a list of [(label value ...)] clauses. *)

  (** [sexp_int label i] is the clause [(label i)]. *)
  val sexp_int : string -> int -> t

  (** [sexp_bool label b] is the clause [(label b)]. *)
  val sexp_bool : string -> bool -> t

  (** [find_field name items] is the values of the first [(name ...)]
      clause in [items]. *)
  val find_field : string -> t list -> (t list, string) result

  (** [as_int label x] reads the integer atom [x]; [label] names it in
      the error. *)
  val as_int : string -> t -> (int, string) result

  (** [int_field name items] reads the clause [(name i)]. *)
  val int_field : string -> t list -> (int, string) result

  (** [bool_field name items] reads the clause [(name b)]. *)
  val bool_field : string -> t list -> (bool, string) result

  (** [collect f xs] maps [f] over [xs], stopping at the first error. *)
  val collect : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
end

type t = {
  property : string;
  inject : string;
  case : Schedule_enum.t;
}

(** The document {!save} writes and {!load} parses. *)
val to_string : t -> string

(** [save path t] writes [to_string t] to [path]. *)
val save : string -> t -> unit

(** [load path] reads and parses [path]. *)
val load : string -> (t, string) result

(** [replay t] re-resolves the property and executes the case, returning
    its verdict. [Ok v] with [v.ok = false] means the counterexample
    reproduced. With [?obs] the re-execution is traced through the hub
    — the provenance path. *)
val replay : ?obs:Ftss_obs.Obs.t -> t -> (Property.verdict, string) result
