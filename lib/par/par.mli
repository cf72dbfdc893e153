(** Dependency-free fork/join pool over stdlib [Domain].

    This is the only module allowed to call [Domain.spawn] (schedlint R6):
    keeping domain management in one place is what lets the rest of the
    tree stay deterministic — callers express {e what} runs in parallel
    ([map] over an index range) and determinism falls out of the fact that
    each index computes an independent result written back to its own slot,
    so the output never depends on which domain ran which index.

    The intended use is the replication harness: replication [k] draws from
    [Rng.substream k] regardless of scheduling, so [map ~jobs:n] is
    byte-for-byte identical to [map ~jobs:1]. *)

val available_parallelism : unit -> int
(** [Domain.recommended_domain_count ()] — an upper bound on useful jobs. *)

val default_jobs : unit -> int
(** Number of jobs used when [?jobs] is omitted: the [STATSCHED_JOBS]
    environment variable when set to a positive integer, otherwise
    [available_parallelism ()]. Raises [Invalid_argument] if
    [STATSCHED_JOBS] is set but not a positive integer. *)

val spawn_count : unit -> int
(** Total number of domains ever spawned by this module in this process.
    Monotonic; [map ~jobs:1] never increments it — the regression tests
    pin that the sequential path is pool-free. *)

val map : ?jobs:int -> int -> (int -> 'a) -> 'a list
(** [map ?jobs n f] computes [[f 0; f 1; ...; f (n-1)]], evaluating the
    calls on up to [jobs] domains (default {!default_jobs}; clamped to
    [n]). Work is handed out dynamically — an idle domain takes the next
    unstarted index — but results are returned in index order, so the
    output is independent of [jobs] and of scheduling.

    [~jobs:1] runs everything in the calling domain with no spawns,
    no atomics and no intermediate results — a plain sequential build.
    With [jobs >= 2] the caller works beside at most
    [min (jobs - 1) (n - 1)] helper domains: every worker pulls indices
    from 0 through one atomic counter, so a batch of [jobs] indices
    runs all at once.  Each worker keeps its [(k, f k)] pairs, which
    are put in index order after the join.

    When [min jobs n] is at most {!available_parallelism}, the caller
    and the helpers run [f] with a 32 Ki-word (256 KiB) minor heap
    instead of the runtime's 2 MiB default.  With every domain busy,
    default heaps kept the process 2–4 MiB above its footprint when one
    domain ran everything; the small heap cost a Table 3 batch no
    throughput, while the scale sweep's cells lost 5–10 % of their
    events/s.  With more domains than cores the default stays, because
    every minor collection stops all domains and would wait for a
    descheduled one.  The caller's own minor-heap size is restored
    before [map] returns or raises.

    If any [f k] raises, the first exception observed is re-raised in
    the caller after all domains have been joined; remaining unstarted
    indices are abandoned.

    Raises [Invalid_argument] if [n < 0] or [jobs < 1]. *)

val map_array : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** Same as {!map} but returns the results as an array. *)
