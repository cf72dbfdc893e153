(** The command-line vocabulary [schedsim], [schedsimd] and [simcheck]
    share: each option more than one program takes, declared once, and
    the one error path every command runs under.

    Flag names, aliases, metavariables and parsers are fixed here; a
    program passes [~default] and [~doc] where it differs on purpose. *)

open Cmdliner

val speeds : float array Term.t
(** [-s]/[--speeds SPEEDS]: a {!Statsched_core.Speeds.of_string} list;
    default {!Statsched_core.Speeds.table3}. *)

val rho : default:float -> doc:string -> float Term.t
(** [-u]/[--utilization RHO]. *)

val seed : default:int64 -> doc:string -> int64 Term.t
(** [--seed SEED]. *)

val jobs : doc:string -> int option Term.t
(** [-j]/[--jobs N]: a positive integer, [None] when absent. *)

val journal : doc:string -> string option Term.t
(** [--journal FILE]. *)

val journal_capacity : default:int -> doc:string -> int Term.t
(** [--journal-capacity N]. *)

val metrics_out : doc:string -> string option Term.t
(** [--metrics-out FILE]. *)

val guard : ?jobs:int option -> (unit -> 'a) -> 'a Term.ret
(** [guard ?jobs f] is [`Ok (f ())], or [`Error] with the message of
    the [Invalid_argument], [Sys_error] or
    {!Statsched_cluster.Sanitize.Violation} that [f] raised, which
    cmdliner prints as [prog: message] and exits 124.  A command that
    takes [--jobs] passes its value: when it is [None], a malformed
    [STATSCHED_JOBS] fails here, before [f] prints anything. *)
