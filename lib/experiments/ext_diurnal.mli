(** Extension experiment: non-stationary (diurnal) load.

    Static allocations are computed for one utilisation.  Under a daily
    load swing of ±[amplitude] around mean ρ, how much does that cost —
    and does the windowed adaptive scheduler recover it?  Columns:
    ORR tuned to the {e mean} load (the paper's §5.4 recommendation),
    cumulative and windowed AdaptiveORR, WRR, and Least-Load (which is
    oblivious to ρ and serves as the dynamic frame). *)

val default_amplitudes : float list
(** [0; 0.1; 0.2; 0.3] — peak load stays below saturation at ρ = 0.7. *)

type t = (float * (string * Runner.point) list) list

val run :
  ?scale:Config.scale ->
  ?seed:int64 ->
  ?jobs:int ->
  ?speeds:float array ->
  ?rho:float ->
  ?day_length:float ->
  ?amplitudes:float list ->
  unit ->
  t
(** Defaults: Table 3 speeds, mean ρ = 0.7, day length 86 400 s. *)

val to_report : t -> string

val adaptive : ?scale:Config.scale -> ?seed:int64 -> ?jobs:int -> unit -> t
(** The stationary control for the diurnal sweep: cumulative AdaptiveORR,
    which learns ρ online, against ORR told the true ρ (the oracle) and
    WRR, on the paper's workload on the Table 3 cluster at ρ = 0.3, 0.5,
    0.7 and 0.9.  Rows are keyed by ρ. *)

val adaptive_report : t -> string
