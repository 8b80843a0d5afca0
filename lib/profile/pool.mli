(** The one parallel executor: independent work items spread over OCaml 5
    domains by chunked atomic work claiming.

    The exhaustive explorer's sweeps, the fuzzer's batches and the
    sharded service runner all execute through {!run}. A caller hands it
    a length and a [work] function over position ranges; the domains
    claim consecutive chunks of positions off one shared cursor with one
    [Atomic.fetch_and_add] each, so cursor contention is paid once per
    chunk rather than once per item. Results are the caller's to store
    by position, which keeps them independent of the interleaving; any
    per-domain state (verdict caches, counters) lives in caller arrays
    indexed by the [domain] argument, so no lock is taken on the
    per-item path. *)

(** [Domain.recommended_domain_count ()]. *)
val available : unit -> int

(** [domains d] is the domain count {!run} uses for a request of [d]:
    [d <= 0] means {!available}[ ()], and the result is clamped to
    [1 .. 64]. More domains than cores is legal, merely oversubscribed. *)
val domains : int -> int

(** [run ?profile ~lane ~domains len work] calls [work ~domain ~first
    ~limit] once per chunk, covering positions [0 .. len - 1] exactly
    once, and returns when every chunk has been executed.

    The chunk size is [max 1 (min 64 (len / 16))]: 64 positions, fewer
    for lengths under 1,024 so they still split into 16 chunks. It
    depends on [len] alone, so the set of [(first, limit)] ranges is the
    same at every domain count — a caller whose work restarts per chunk
    (the explorer's prefix walk) does the same work whatever [domains]
    is. [domain] is below [domains domains]; the calling domain is worker
    0, and no more domains are spawned than there are chunks (none at
    one domain).

    With [profile], worker [i] records on lane [<lane>.d<i>] one
    [chunk_claim] lap around each claim off the cursor and one
    [chunk_execute] span around each chunk's [work]. Unset, the
    instrumentation is one option test per chunk. *)
val run :
  ?profile:Profile.t ->
  lane:string ->
  domains:int ->
  int ->
  (domain:int -> first:int -> limit:int -> unit) ->
  unit
