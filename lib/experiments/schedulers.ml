module Cluster = Statsched_cluster
module Core = Statsched_core

let static_four =
  List.map
    (fun (name, p) -> (name, Cluster.Scheduler.Static p))
    Core.Policy.all_static

let with_least_load = static_four @ [ ("LeastLoad", Cluster.Scheduler.least_load_paper) ]

let custom label make = (label, Cluster.Scheduler.Static_custom { label; make })

let dispatch_ablations =
  [
    ("ORR", Cluster.Scheduler.Static Core.Policy.orr);
    custom "ORR/no-guard" (fun ~rho ~speeds ~rng:_ ->
        Core.Dispatch.round_robin_no_guard (Core.Allocation.optimized ~rho speeds));
    custom "ORR/index-ties" (fun ~rho ~speeds ~rng:_ ->
        Core.Dispatch.round_robin_index_ties (Core.Allocation.optimized ~rho speeds));
    custom "O-smoothWRR" (fun ~rho ~speeds ~rng:_ ->
        Core.Dispatch.smooth_weighted (Core.Allocation.optimized ~rho speeds));
  ]
