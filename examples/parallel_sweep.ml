(* Multicore experiment sweep.

   Reproduces the Figure 5 load sweep using the OCaml 5 domain-parallel
   replication runner: each data point's independent replications run on
   separate cores, with results bitwise identical to the sequential
   runner (the RNG substreams don't care which domain draws them).

   Run with:  dune exec examples/parallel_sweep.exe *)

module Core = Statsched_core
module Cluster = Statsched_cluster
module E = Statsched_experiments

let () =
  let speeds = Core.Speeds.table3 in
  let scale = { E.Config.horizon = 200_000.0; warmup = 50_000.0; reps = 6 } in
  Printf.printf
    "Figure 5 sweep on %d domains (%d replications per point, %g s each)\n\n"
    (Domain.recommended_domain_count ())
    scale.E.Config.reps scale.E.Config.horizon;
  let t0 = Unix.gettimeofday () in
  let rows =
    List.map
      (fun rho ->
        let workload = Cluster.Workload.paper_default ~rho ~speeds in
        let point policy =
          E.Runner.measure ~scale
            (E.Runner.make_spec ~speeds ~workload
               ~scheduler:(Cluster.Scheduler.static policy) ())
        in
        (rho, point Core.Policy.orr, point Core.Policy.wrr))
      [ 0.3; 0.5; 0.7; 0.9 ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  print_string
    (E.Report.render
       ~header:[ "utilization"; "ORR resp. ratio"; "WRR resp. ratio"; "ORR gain" ]
       ~rows:
         (List.map
            (fun (rho, orr, wrr) ->
              let m p =
                p.E.Runner.mean_response_ratio.Statsched_stats.Confidence.mean
              in
              [
                E.Report.Percent rho;
                E.Report.Interval orr.E.Runner.mean_response_ratio;
                E.Report.Interval wrr.E.Runner.mean_response_ratio;
                E.Report.Percent (1.0 -. (m orr /. m wrr));
              ])
            rows));
  Printf.printf "\nwall time: %.1f s\n" elapsed
