(** Content-addressed analysis cache: an in-memory store with an
    optional on-disk tier shared safely by concurrent readers {e and}
    writers — the domains of one process and the forked workers of a
    fleet run alike.

    Entries are keyed by [(namespace, digest)] where the digest is
    computed by {!Digest_ir} over everything the cached computation
    reads; a stale input therefore changes the key and the entry is
    simply never found again — there is no explicit invalidation.

    The store is type-unsafe by construction (one table holds values of
    many types); safety is by the namespace discipline: a namespace is
    only ever read and written with one type.  All in-memory operations
    are mutex-guarded, so one cache may be shared by the domains of
    {!Driver.analyze_files_par}.

    {b Disk-tier concurrency protocol.}  On-disk entries (one file per
    entry) live under a {e generation-stamped} subdirectory of the cache
    root named from {!format_version} and the compiler version, so
    processes with incompatible marshalled layouts never touch the same
    files.  Within a generation, writers marshal to a temp file whose
    name is unique per process {e and} per write (pid + atomic counter)
    and publish it with an atomic [rename(2)]; a key that already exists
    on disk is left alone (same key ⇒ same value).  Readers validate
    lock-free: every entry carries a versioned header recording the
    cache format, compiler version and entry key, and a file that is
    absent, truncated, corrupt, or written by a different
    format/compiler is discarded and the result recomputed.  Discards
    are never silent to the observability layer: {e stale} (header
    mismatch) and {e corrupt} (unmarshal failure) recoveries are counted
    separately — in {!detailed_stats} and in the
    ["cache.<ns>.stale"/".corrupt"] telemetry counters — and [~verbose]
    adds a one-line stderr note per discarded file.

    {b Cross-system dedupe accounting.}  Per-function entries are keyed
    by content digest, so identical functions appearing in many systems
    are computed once fleet-wide.  Each entry records the {e origin}
    system whose analysis stored it (see {!with_origin}); a hit whose
    origin differs from the current one is a {e cross hit} — work some
    other system already paid for — counted in {!detailed_stats},
    {!cross_hits} and the ["cache.cross_hits"] telemetry counter. *)

type t

val create :
  ?dir:string ->
  ?verbose:bool ->
  ?on_recovery:(kind:string -> ns:string -> key:string -> unit) ->
  unit ->
  t
(** [create ()] is memory-only; [create ~dir ()] adds a disk tier rooted
    at [dir] (created if missing; creation failure degrades silently to
    memory-only), with entries under [dir]'s generation subdirectory.
    [~verbose] (default false) reports each discarded stale/corrupt disk
    entry on stderr; it never affects results.  [~on_recovery] is called
    once per discarded disk entry with [kind] (["stale"] or ["corrupt"])
    and the entry's namespace and key — fleet workers use it to emit
    [cache.recovered] events; exceptions it raises are swallowed, and it
    must not call back into this cache (it runs under the cache lock). *)

val find : t -> ns:string -> key:string -> 'a option
(** memory first, then disk (populating memory on a disk hit).  The
    caller must request the type that [store] put in [ns]. *)

val store : t -> ns:string -> key:string -> 'a -> unit
(** the value must be pure data (no closures); disk writes go to a
    pid+sequence-unique temp file published by atomic rename (write
    errors are ignored), and a key already present on disk is not
    rewritten *)

val stats : t -> (string * (int * int)) list
(** per-namespace (hits, misses) counters, sorted by namespace — kept
    here rather than in {!Report.t.stats} so warm and cold reports stay
    bit-identical.  [misses] counts every lookup that was not a hit,
    including stale/corrupt recoveries. *)

type ns_stats = {
  hits : int;
  misses : int;
  stale : int;
  corrupt : int;
  cross : int;  (** hits on entries another system's analysis stored *)
}
(** [stale + corrupt <= misses] (both are recovered misses) and
    [cross <= hits] *)

val detailed_stats : t -> (string * ns_stats) list
(** like {!stats} but splitting out stale/corrupt disk recoveries and
    cross-system hits *)

val cross_hits : t -> int
(** total cross-system hits over all namespaces *)

val reset_stats : t -> unit

(** {1 Origin tracking} *)

val with_origin : string -> (unit -> 'a) -> 'a
(** [with_origin sys f] runs [f] with the current domain's origin set to
    [sys] (the identity of the system being analyzed — the fleet member
    path, or the source label for a plain run).  Stores record the
    origin; hits compare against it.  The previous origin is restored on
    exit.  An empty origin (the default on every domain) disables
    cross-hit attribution for that code. *)

val current_origin : unit -> string
(** this domain's current origin ("" when unset) *)

(** {1 Format identity} *)

val format_version : int

val generation : string
(** the generation stamp: cache format + compiler version.  Processes
    with different stamps share a cache root but never share entries. *)
