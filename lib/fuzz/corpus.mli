(** The fuzzer's corpus: inputs that grew coverage, with persistence.

    Coverage is two-level, mirroring what the engine already fingerprints:
    the set of whole-execution fingerprints ({!Ftss_check.Property.run}'s
    [fingerprint], in the printed form of the property's
    [fingerprint_hex]) plus the set of per-round signature words
    ({!Ftss_sync.Trace.round_signature} under the property's observable
    projection). A genome whose execution contributes a new fingerprint
    {e or} a new signature word enters the corpus; everything else is
    discarded. Signature words are what make the feedback loop
    interesting: two executions may differ wholesale (new fingerprint)
    while visiting only already-seen per-round configurations — only
    genuinely new behaviour at round granularity admits an input.

    Corpora persist as one JSON file per entry ([<fingerprint>.genome],
    {!Mutate.to_json}) in a directory, so successive CI runs accumulate
    coverage. *)

type t

(** An empty corpus that admits at most 4096 entries: once full,
    coverage is still recorded — {!points} keeps growing and {!observe}
    still reports growth — but no further genome is admitted. Distinct
    execution fingerprints are nearly universal under mutation, so an
    uncapped corpus would admit most inputs; the cap is what keeps the
    parent pool, the saved directory and CI artifacts bounded. *)
val create : unit -> t

(** Entries in admission order. *)
val entries : t -> Mutate.t list

val length : t -> int

(** Distinct coverage points seen: fingerprints plus signature words. *)
val points : t -> int

(** [observe t ~genome ~fingerprint ~signature] records the execution's
    coverage and returns whether it grew; the genome is admitted exactly
    when it did and the corpus is not full. *)
val observe :
  t -> genome:Mutate.t -> fingerprint:string -> signature:int array -> bool

(** [save t ~dir] writes every entry to [dir] (created if missing) as
    [<fingerprint>.genome], skipping files that already exist. *)
val save : t -> dir:string -> unit

(** [load ~dir] parses every [*.genome] file in [dir], in filename order.
    A missing directory is an empty corpus; an unreadable, truncated or
    malformed file, or one in the former S-expression format, is a clear
    [Error] naming the file, never an escaped exception. *)
val load : dir:string -> (Mutate.t list, string) result
