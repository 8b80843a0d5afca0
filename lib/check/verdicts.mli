(** Verdict caches keyed by fingerprint.

    By {!Property.run}'s contract equal fingerprints imply equal verdicts,
    so a cache that maps a fingerprint to its verdict's [ok] answers for
    every later run of the same execution without forcing its verdict.
    The explorer and the fuzzer keep one per domain.

    A cache is one flat open-addressing table: an int array of
    fingerprints beside a byte per slot that holds the verdict bit or
    marks the slot empty, so every int, 0 and [max_int] included, can be
    a key. Fingerprints are already well-mixed hashes, and a key's home
    slot is its own low bits; collisions probe the following slots. *)

type t

(** An empty cache. *)
val create : unit -> t

(** [memo t r] is the [ok] the cache holds for [r.fingerprint], or else
    [r]'s verdict, forced and stored under it. A hit leaves [r.verdict]
    unforced. *)
val memo : t -> Property.run -> bool

(** [distinct ts] is the number of fingerprints held by at least one of
    [ts]: the size of the union of their keys. *)
val distinct : t array -> int
