(** QCheck-driven configuration fuzzer.

    Draws random but plausible simulator configurations — speeds,
    utilisations, schedulers, service disciplines, arrival burstiness,
    size distributions, fault plans — runs each over a short window
    sized from its arrival rate ({!window}) with the runtime sanitizers
    on, and checks structural invariants no configuration may violate:
    finite non-negative metrics, utilisations in [0,1], dispatch
    fractions summing to 1, conservation between arrivals and
    completions, and (for static policies on a reliable cluster)
    long-run dispatch fractions within a binomial bound of the intended
    allocation.

    Failing configurations are shrunk by QCheck2's integrated shrinking
    and reported as a replayable [schedsim run] command with explicit
    [--horizon]/[--warmup] overrides, so the counterexample reproduces
    at the shell bit for bit. *)

val scenario_gen : Scenario.t QCheck2.Gen.t
(** Draws only scenarios that {!reaches_steady_state} accepts, and SITA
    only with the paper's bounded-Pareto sizes. *)

val reaches_steady_state : Scenario.t -> bool
(** [false] for a requeue fault plan under which the backlog can grow
    without bound: a discipline that serves several jobs at once (PS,
    RR), a size distribution without a light tail, or a mean job time on
    the slowest computer above 5 % of the MTBF (see fuzz.ml).  [true]
    for every other scenario. *)

val window : Scenario.t -> float * float
(** [(horizon, warmup)] for a scenario: the horizon is long enough that
    400 arrivals are expected after the warm-up, at least 8000 simulated
    seconds, and a whole number of thousands of seconds; the warm-up is
    its first quarter. *)

val check : horizon:float -> warmup:float -> Scenario.t -> (unit, string) result
(** Run one configuration and evaluate the invariants; [Error] carries
    the violation description (including sanitizer reports and uncaught
    exceptions). *)

val property : Scenario.t -> bool
(** {!check} over the scenario's {!window}, as a QCheck2 property;
    failures report the violation plus the replay command via
    [fail_reportf]. *)

val test : ?count:int -> unit -> QCheck2.Test.t
(** The property packaged as a QCheck2 test (default [count = 30]) — the
    unit-test suite registers this via [QCheck_alcotest]. *)

val run : ?count:int -> ?seed:int -> unit -> Check.t list
(** Run the fuzzer standalone (the [simcheck] tool's entry point): a
    single summary check, carrying the shrunk counterexample and replay
    command on failure. *)
