(** Job dispatching strategies (Section 3).

    A dispatcher realises a workload allocation job-by-job: every arrival
    calls {!select} and the returned computer index receives the job.
    Dispatchers are deliberately oblivious to job sizes and computer
    states — that is what makes the resulting policies static. *)

type t
(** A mutable dispatcher. *)

val select : t -> int
(** Decide the destination of the next arriving job. *)

val name : t -> string

val fractions : t -> float array
(** The allocation the dispatcher was built with (copy). *)

val reset : t -> unit
(** Return to the initial state (counters cleared, RNG state untouched). *)

val random : rng:Statsched_prng.Rng.t -> float array -> t
(** Random based dispatching (Section 3.1): send to computer [i] with
    probability [α_i].  O(log n) per decision via a cumulative table.

    @raise Invalid_argument unless fractions are non-negative and sum
    to 1 (within 1e-9). *)

val random_alias : rng:Statsched_prng.Rng.t -> float array -> t
(** {!random} with Walker's alias method ({!Walker_alias}): O(1) per
    decision after O(n) setup, at the price of one extra uniform draw.
    Statistically identical to {!random} (same marginal probabilities,
    different stream consumption); the micro-bench compares the two.

    @raise Invalid_argument as for {!random}. *)

val round_robin : float array -> t
(** Round-robin based dispatching — the paper's Algorithm 2.  Each
    computer carries [assign] (jobs sent so far) and [next] (expected
    number of system arrivals before its next job).  The arrival goes to
    the live computer with minimal [next]; ties break toward the smallest
    normalised assignment count [(assign+1)/α].  Afterwards the chosen
    computer's [next] grows by [1/α] and every computer that has already
    started receiving jobs has [next] decremented.  [next] starts at the
    guard value 1 and is reset to 0 at a computer's first selection, which
    staggers the first jobs of small-fraction computers (Section 3.2).
    Deterministic: no randomness at all.

    @raise Invalid_argument as for {!random}. *)

val round_robin_lazy : float array -> t
(** {!round_robin} in offset form for many-server runs: O(log n) per
    decision instead of O(n).  Stores [next_i + A] (where [A] counts
    selects so far) in a tournament tree, so the global "everyone
    started gets −1" update is a single counter increment; unstarted
    computers wait in a static priority queue ordered by
    [(1/α, index)].  Decision-for-decision identical to {!round_robin}
    whenever every fraction is a power of two (all arithmetic is then
    exact); with arbitrary fractions the reassociated arithmetic can
    round guard-row ties differently, so treat it as a distinct
    dispatcher, not a drop-in replica — the scale sweeps use it as the
    ORR dispatcher at n >= 10^3.

    @raise Invalid_argument as for {!random}. *)

val round_robin_no_guard : float array -> t
(** Ablation: Algorithm 2 with the first-assignment guard removed
    ([next] initialised to 0, no reset on first selection).  Small-fraction
    computers then receive their first jobs back-to-back at the start of
    the cycle — measurably burstier (see the ablation bench). *)

val round_robin_index_ties : float array -> t
(** Ablation: Algorithm 2 with ties on [next] broken by smallest index
    instead of the normalised assignment count. *)

val smooth_weighted : float array -> t
(** Classic smooth weighted round-robin (the algorithm popularised by
    Nginx): each computer carries a current weight increased by [α_i] per
    arrival; the maximal one is chosen and decreased by 1.  Included as an
    independent deterministic comparator for the dispatching bench. *)

val golden_ratio : float array -> t
(** Quasi-random dispatching: like {!random} but driven by the Weyl
    sequence [u_t = frac(t·φ⁻¹)] instead of a PRNG.  The sequence is
    low-discrepancy, so per-computer counts stay within O(log t) of
    [t·α_i] — deterministic and smoother than random, but without
    Algorithm 2's per-computer spacing guarantee.  Included as a third
    point between random and round-robin in the dispatching ablation. *)
