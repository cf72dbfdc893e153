(** The paper's sensitivity figures and the extension sweeps, as
    {!Sweep.study} values, and the comparison tables, as {!Sweep.table}
    values.  Run a study with {!Sweep.run} and print it with
    {!Sweep.to_report}; run a table with {!Sweep.run_table} and print it
    with {!Sweep.table_to_report}.  Override a grid, a cell or the rows
    by record update ([{ fig3 with xs = [ 1.; 16. ] }]).  Unless a study
    or table says otherwise it measures the paper's workload
    (Bounded-Pareto sizes, arrival CV 3) under processor sharing at the
    command line's scale, and its columns are WRAN, ORAN, WRR, ORR and
    Dynamic Least-Load. *)

val fig3 : Sweep.study
(** Figure 3 — effect of speed skewness.

    18 computers: 2 fast and 16 slow.  Slow speed fixed at 1; fast speed
    swept from 1 (homogeneous) to 20 (highly skewed); system utilisation
    70 %.  Panels: (a) mean response time, (b) mean response ratio,
    (c) fairness.

    Expected shape: optimized allocation wins once speeds differ and its
    margin grows with the ratio (paper: ORR 42 % under WRR and ORAN 49 %
    under WRAN at 20:1); ORR approaches Least-Load at high skew; WRR beats
    ORAN near homogeneity but loses to it at high skew. *)

val fig4 : Sweep.study
(** Figure 4 — effect of system size.

    [n] computers, half of speed 10 and half of speed 1, [n] swept from 2
    to 20 at 70 % utilisation.  Panels: (a) mean response ratio,
    (b) fairness.  (The paper drops the mean-response-time panel from
    here on as its trends duplicate the ratio's.)  The cell function
    raises [Invalid_argument] for an [n] that is not an even integer
    [>= 2].

    Expected shape: ORR 35–40 % below WRAN beyond 6 computers; the gap
    between ORR and Least-Load widens with system size; round-robin
    dispatching improves as [n] grows. *)

val fig5 : Sweep.study
(** Figure 5 — effect of system load.

    The Table 3 base configuration (15 computers, aggregate speed 44)
    under system utilisations from 30 % to 90 %.  Panels: (a) mean
    response ratio, (b) fairness.

    Expected shape: ORR best among statics everywhere; ORR/ORAN close to
    Least-Load at low load; at ρ = 0.9 ORR's mean response ratio ≈ 24 %
    below WRR and ≈ 34 % below WRAN; the Least-Load advantage and the
    round-robin dispatching gain both grow with load. *)

val fig6_under : Sweep.study
(** Figure 6(a) — ORR under load underestimation.

    The optimized allocation needs the system utilisation ρ; this
    study runs ORR computed with a misestimated ρ̂ = (1 + err)·ρ over
    the Table 3 configuration at ρ = 0.5 … 0.9 (the range where
    estimation error matters), err ∈ {−15 %, −10 %, −5 %}.  Columns:
    exact ORR, one ORR(err) per error, WRR; one panel, the mean
    response ratio.

    Expected shape: underestimation is benign at light load but
    catastrophic near saturation (assigns more than capacity to the fast
    machines — can fall below WRR and destabilise). *)

val fig6_over : Sweep.study
(** Figure 6(b) — as {!fig6_under} with err ∈ {+5 %, +10 %, +15 %}.

    Expected shape: overestimation costs little everywhere because it
    pushes the allocation toward the weighted scheme.  ρ̂ ≥ 1 degrades
    to WRR by construction (the paper adopts the WRR value for
    ORR(+15 %) at ρ = 0.9 for the same reason). *)

val ext_burstiness : Sweep.study
(** Extension: sensitivity to arrival burstiness.

    Not in the paper, but implied by its Section 5.3 observation that the
    round-robin dispatching gain "is higher under heavy load...  system
    performance becomes more sensitive to job arrival pattern".  This
    sweep varies the arrival coefficient of variation from sub-Poisson
    (Erlang, 0.5) through Poisson to strongly bursty hyperexponential
    (5; 3 is the paper's default) on the Table 3 configuration at 70 %
    utilisation, and reports how the advantage of round-robin over
    random dispatching — and of everything over Least-Load — moves with
    burstiness.  Panels: mean response ratio, fairness. *)

val ext_faults : Sweep.study
(** Extension: scheduler robustness under computer failures.

    The paper assumes a perfectly reliable cluster; this sweep injects
    per-computer exponential crash/repair processes (MTBF swept over two
    orders of magnitude, 250 s to 64000 s, at a fixed 50 s MTTR) into
    the Table 3 configuration at ρ = 0.7 and measures all five
    schedulers under the same fault sequence.  Static policies re-run
    Algorithm 1 on the surviving speed vector when the failure detector
    (blacklist reaction) fires; Least-Load simply stops considering
    crashed computers.  In-flight jobs are requeued to the dispatcher,
    so no work is lost — the response-time cost of a crash is the
    restarted service plus the extra queueing on the survivors.  One
    panel, the mean response time. *)

val availability_table : Sweep.rows -> string
(** Availability / lost-job summary of {!ext_faults} rows, one line per
    MTBF. *)

val ext_staleness : Sweep.study
(** Extension: how stale can dynamic load information get before static
    ORR wins?

    The paper prices Least-Load's advantage assuming near-real-time load
    updates (sub-second delays).  Real deployments often poll: this sweep
    drives Least-Load from fresh polls (1 s) to very stale ones (10⁴ s)
    on the Table 3 configuration at ρ = 0.7 and finds the crossover
    where ORR — which needs {e no} load information — overtakes it.  The
    [blind] variant (scheduler does not even count its own in-flight
    dispatches between polls) exhibits the classic herd pathology and
    collapses far earlier.  Columns: StaleLL, StaleLL/blind, and the ORR
    and true Least-Load frames (constant across rows); one panel, the
    mean response ratio. *)

val ext_diurnal : Sweep.study
(** Extension: non-stationary (diurnal) load.

    Static allocations are computed for one utilisation.  Under a daily
    (86 400 s) load swing of ±amplitude (0 to 0.3, so the peak stays
    below saturation) around mean ρ = 0.7 on the Table 3 cluster, how
    much does that cost — and does the windowed adaptive scheduler
    recover it?  Columns: ORR tuned to the {e mean} load (the paper's
    §5.4 recommendation), cumulative and windowed AdaptiveORR, WRR, and
    Least-Load (which is oblivious to ρ and serves as the dynamic
    frame); one panel, the mean response ratio. *)

val ext_adaptive : Sweep.study
(** The stationary control for {!ext_diurnal}: cumulative AdaptiveORR,
    which learns ρ online, against ORR told the true ρ (the oracle) and
    WRR, on the paper's workload on the Table 3 cluster at ρ = 0.3, 0.5,
    0.7 and 0.9; one panel, the mean response ratio. *)

val ext_convergence : Sweep.study
(** Extension: how long must a run be?

    The paper runs 4·10⁶ simulated seconds per replication; our default
    scale uses a tenth of that.  This methodological study measures the
    drift: ORR, WRR and Least-Load on the Table 3 cluster at ρ = 0.9
    (where heavy tails converge slowest) over a geometric ladder of
    horizons, 5·10⁴ s to 8·10⁵ s, with the first quarter of each run
    always discarded.  Only the replication count comes from the
    command line's scale.  Read it to choose a horizon: when two
    adjacent rows agree within their confidence intervals, the shorter
    horizon is already adequate for the comparison at hand.  One panel,
    the mean response ratio. *)

(** {1 Comparison tables} *)

val partial_information : Sweep.table
(** The other axis of partial information: fresh load, but only [d]
    probed computers per decision.  One row each for ORR, Least-Load
    over [d = 2] and [d = 4] random probes, and full Least-Load on the
    Table 3 cluster at ρ = 0.7: mean response ratio and fairness. *)

val ext_sizes : Sweep.table
(** Extension: job-size distribution sensitivity (PS insensitivity
    check).

    The paper derives its allocation from an M/M/1 model but evaluates on
    Bounded-Pareto sizes, implicitly leaning on the M/G/1-PS insensitivity
    property (mean response time depends on the size distribution only
    through its mean).  This table makes that lean explicit: the Table 3
    cluster at 70 % utilisation under ORR and WRR, one row for each of
    seven size distributions of identical mean (76.8 s) and wildly
    different variability — deterministic, Erlang-4, exponential,
    lognormal (CV 2), Weibull (shape 0.5), Bounded Pareto α=1.5 and the
    paper's Bounded Pareto.  The mean response {e time} columns should
    stay nearly flat; the mean response {e ratio} columns move because
    they reweight by job size. *)

val ext_sita : Sweep.table
(** Extension: what is size-awareness worth?

    The paper's related work (reference [5], Crovella et al.) improves
    performance by assigning tasks based on their service demands —
    knowledge the paper's own policies deliberately avoid needing.  This
    table runs SITA-E (both band orders) head-to-head with WRAN, ORR and
    Least-Load on the Table 3 cluster, one row per service discipline:

    - under FCFS hosts (Crovella's setting) size-based banding isolates
      the huge jobs and should win big;
    - under processor sharing (this paper's setting) PS itself already
      protects small jobs, so the advantage of knowing sizes shrinks —
      which is precisely why the paper can afford size-blind policies.

    One cell per scheduler, the mean response ratio. *)

val ablation_end_to_end : Sweep.table
(** Scheduler variants end-to-end on the Table 3 cluster at ρ = 0.7, one
    row each: ORR and its dispatch ablations, ORR over the naive-clamp
    allocation (Theorem 2 skipped), WRR, and Least-Load with and without
    update delays; mean response ratio and fairness. *)

val ablation_disciplines : Sweep.table
(** WRR on two computers (speeds 1 and 2) under an M/M workload at
    ρ = 0.6, one row per server model: PS, quantum RR (0.1 and 0.01),
    FCFS and SRPT — the PS-model validation plus the discipline
    contrast.  Mean response time and ratio, then two lines reading
    them. *)

val compare : speeds:float array -> rho:float -> Sweep.table
(** [schedsim compare]: the paper's workload at utilisation [rho] on
    [speeds], one row per scheduler (WRAN, ORAN, WRR, ORR, Least-Load):
    mean response time, ratio and fairness, then the median and p99
    response ratio. *)
