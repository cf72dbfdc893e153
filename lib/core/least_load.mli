(** Dynamic Least-Load scheduling state (Sections 2.2 and 4.2).

    The dynamic yardstick against which the static policies are measured.
    The central scheduler tracks a load index per computer — its run-queue
    length as last known — and sends each arrival to the computer with the
    least {e normalised} load [(q_i + 1) / s_i].  The index is incremented
    immediately when a job is sent (no rescheduling, so the scheduler
    knows); a departure is only reflected after the executing computer
    detects it (U(0,1) s polling) and its update message crosses the
    network (exponential delay, mean 0.05 s) — that wiring lives in the
    cluster model; this module is the scheduler-side state machine.

    One belief (queue counts, availability) serves every selector of the
    family: the full tournament tree ({!select}), the uniform and
    speed-weighted power-of-d samplers ({!select_sampled},
    {!select_weighted}) and Join-Idle-Queue ({!select_idle}).  Every
    update is O(1); the tree behind {!select} is brought up to date when
    {!select} reads it, so the other selectors never pay for it. *)

type t

val create : float array -> t
(** [create speeds] starts with all load indices at 0 and every computer
    available, hence idle.

    @raise Invalid_argument on an invalid speed vector. *)

val select : ?rng:Statsched_prng.Rng.t -> t -> int
(** Index of the computer with minimal [(q_i + 1)/s_i] among those
    currently {!is_available}.  Ties break uniformly at random when [rng]
    is given, otherwise toward the smallest index.  If {e every} computer
    is marked unavailable all of them are considered (the scheduler must
    send the job somewhere).  Does {e not} modify the state.

    O(log n) regardless of how many computers tie, via a tournament-tree
    index that carries per-subtree tie counts (plus O(log n) per computer
    updated since the last call, to refresh the index).  Draw order is part of
    the contract: exactly one [Rng.int ties] draw when two or more
    computers tie at the minimum, none when the minimum is unique — a
    pure function of the tied-minimum set, which is what makes a sampled
    probe with [d >= n] bit-identical to this function. *)

val set_available : t -> int -> bool -> unit
(** Mark computer [i] up ([true]) or down ([false]) for selection.
    Least-Load handles failures naturally: a crashed computer simply
    stops being a candidate, no reallocation is needed.  A down computer
    leaves the idle stacks; on recovery it re-joins them if its queue is
    empty.  All computers start available. *)

val is_available : t -> int -> bool

val select_sampled : rng:Statsched_prng.Rng.t -> t -> d:int -> int
(** Power-of-d-choices (Mitzenmacher): probe [d] distinct {e available}
    computers chosen uniformly at random and pick the one with minimal
    normalised load.
    With [d >= n] this degenerates to {!select}.  A cheaper dynamic
    baseline than full Least-Load — the scheduler only needs [d] load
    values per decision — included to price how much of Least-Load's
    advantage survives partial information.

    O(d) and allocation-free: the probe runs a partial Fisher-Yates over
    a persistent index pool and un-swaps the prefix afterwards, so the
    draw sequence matches a shuffle of a fresh pool without creating
    one.

    @raise Invalid_argument if [d < 1]. *)

val select_weighted : rng:Statsched_prng.Rng.t -> t -> d:int -> int
(** Speed-aware power-of-d-choices: probe [d] distinct available
    computers drawn from Walker's alias table over the speed vector
    (probability proportional to speed) and pick the one with minimal
    normalised load, breaking exact load ties toward the faster
    computer.  On a heterogeneous cluster this is the fix for uniform
    probing's blind spot: with a few fast and many slow computers a
    uniform [d]-sample rarely contains a fast one, so JSQ(d) piles work
    on the slow majority however idle the fast minority is.

    With [d >= n] this degenerates to {!select}, exactly like
    {!select_sampled} — the [JSQ(d=n) ≡ Least-Load] equivalence is
    probe-mode-independent.  Distinctness is enforced by generation
    stamps with a bounded rejection loop ([16 d] draws); if rejection
    cannot place all [d] probes (tiny available fraction, extreme
    skew), the remainder fall back to the uniform Fisher-Yates sampler,
    so the decision is O(d) and allocation-free in every case.

    Consumes a variable number of RNG draws (two per alias try, one per
    fallback fill), unlike {!select_sampled}'s fixed [d] — replayable,
    but not draw-count-compatible with the uniform sampler, which is
    why the uniform path stays reachable for old replays.

    @raise Invalid_argument if [d < 1]. *)

val select_idle : rng:Statsched_prng.Rng.t -> t -> int
(** Join-Idle-Queue (Lu et al.; Gardner et al. for the heterogeneous
    treatment — see PAPERS.md): the most recently idled computer of the
    fastest speed class with idle members, where a computer is idle
    while its believed queue is empty and it is available.  When no
    computer is idle, a speed-weighted random draw (two [rng] draws per
    attempt, redrawn up to 16 times to dodge unavailable computers, then
    a first-available scan as a last resort).  Consumes randomness
    {e only} on the no-idle path.  O(1) and allocation-free: per speed
    class, the idle computers sit on an intrusive stack that every
    update below keeps current. *)

val job_sent : t -> int -> unit
(** Record the dispatch of a job to computer [i]: [q_i <- q_i + 1]. *)

val departure_recorded : t -> int -> unit
(** Apply a (possibly delayed) departure notification: [q_i <- q_i − 1].
    Clamped at 0 so a late duplicate cannot drive the index negative.
    A computer whose queue reaches 0 while available joins its class's
    idle stack (JIQ's one message per job). *)

val load_index : t -> int -> int
(** Current believed run-queue length of computer [i]. *)

val set_load_index : t -> int -> int -> unit
(** [set_load_index t i q] overwrites the believed run-queue length of
    computer [i] — used by the stale-information scheduler variant that
    refreshes its view from periodic polls instead of per-event updates.

    @raise Invalid_argument if [q < 0]. *)

val normalized_load : t -> int -> float
(** [(q_i + 1) /. s_i]. *)

val reset : t -> unit
(** All indices back to 0; every available computer is idle again. *)
