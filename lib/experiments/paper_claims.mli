(** Executable paper claims.

    Every quantitative statement the paper makes about its results,
    encoded as a checkable predicate over the regenerated experiments.
    The bench harness prints this scoreboard last, so a reader can see at
    a glance which of the paper's conclusions reproduce at the chosen
    scale.  Pass bands are deliberately generous (reproduction targets the
    {e shape}, and short horizons are noisy); failures at the [quick]
    scale are expected for the tightest claims. *)

type inputs = {
  table1 : Table1.result;
  fig2 : Fig2.result;
  fig3 : Sweep.rows;
  fig4 : Sweep.rows;
  fig5 : Sweep.rows;
  fig6_under : Sweep.rows;
  fig6_over : Sweep.rows;
}

val gather : ?scale:Config.scale -> ?seed:int64 ->
  ?jobs:int -> unit -> inputs
(** Run every experiment the claims need (the bulk of the bench time). *)

type outcome = {
  id : string;  (** short stable identifier, e.g. ["F3/orr-vs-wrr@20"] *)
  claim : string;  (** the paper's statement *)
  expected : string;  (** the acceptance band *)
  measured : string;  (** what this run produced *)
  pass : bool;
}

val evaluate : inputs -> outcome list
(** All claims, in paper order. *)

val to_report : outcome list -> string
(** Scoreboard table plus a pass-count summary line. *)
