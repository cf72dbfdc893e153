(* The per-job layer ledger: each layer's cost per job, measured by
   replaying that layer alone, and the residual the layers leave of the
   end-to-end cost.  The residual is reported as it falls, negative
   included, never clamped. *)

type t = { end_to_end : float; layers : (string * float) list }

(* Where a job stream comes from, which decides the layers on its path.
   A batch run samples its arrivals and sizes ([dist]) and installs no
   telemetry hooks.  On the daemon the size arrives in the request body
   and the driver has no arrival events, so [dist] is off the path, and
   the telemetry hooks are on it. *)
type source = Batch | Served

let layers_of = function
  | Batch -> [ "dist"; "des"; "queueing"; "core"; "cluster.collector" ]
  | Served -> [ "des"; "queueing"; "core"; "cluster.collector"; "cluster.telemetry" ]

(* The ledger of a [source]: [cost name] is that layer's cost per job. *)
let make source ~end_to_end ~cost =
  { end_to_end; layers = List.map (fun l -> (l, cost l)) (layers_of source) }

let glue { end_to_end; layers } =
  List.fold_left (fun acc (_, v) -> acc -. v) end_to_end layers

let layer_sum { layers; _ } = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers
