(** Replayable counterexample files.

    A counterexample is a genome ({!Mutate.t}), whichever front end
    found it: [ftss check] injects its first violating catalogue case
    and [ftss fuzz] mutates one, and both shrink it with
    {!Fuzz.shrink_genome}. The file is one JSON document (through
    {!Ftss_obs.Json}, like every other artefact of the tooling) naming
    the property and embedding the genome in its corpus form
    ({!Mutate.to_json}), so it can be attached to a bug report, read by
    any JSON tool, and re-executed deterministically with
    [ftss replay FILE]. Example:

    {v
{"format":"ftss-counterexample","version":3,"property":"theorem3",
 "inject":"frozen-exchange",
 "genome":{"format":"ftss-genome","version":2,
           "params":{"n":3,"rounds":3,"f":1,"allow_drops":true},
           "faulty":[],"crashes":[],"drops":[],"corrupt":[[2,292]]}}
    v}

    Reading is strict: an unknown property, a genome {!Mutate.of_json}
    rejects, and a genome with drops for a property that runs crash
    schedules only (theorem 5) are reported as [Error _], never
    guessed. A file of an earlier version (2, a catalogue case; 1, an
    S-expression) is not read; its error names the version and says to
    re-run [check --out]. *)

type t = {
  property : string;
  inject : string;
  genome : Mutate.t;
}

(** The document {!save} writes and {!load} parses. *)
val to_string : t -> string

(** [save path t] writes [to_string t] to [path]. *)
val save : string -> t -> unit

(** [load path] reads and parses [path]. *)
val load : string -> (t, string) result

(** [replay t] re-resolves the property and executes the genome,
    returning its verdict. [Ok v] with [v.ok = false] means the
    counterexample reproduced. With [?obs] the re-execution is traced
    through the hub — the provenance path. *)
val replay : ?obs:Ftss_obs.Obs.t -> t -> (Ftss_check.Property.verdict, string) result
