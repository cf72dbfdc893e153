module Cluster = Statsched_cluster
module Core = Statsched_core
module Dist = Statsched_dist
module Scheduler = Cluster.Scheduler

let orr = ("ORR", Scheduler.Static Core.Policy.orr)

let wrr = ("WRR", Scheduler.Static Core.Policy.wrr)

let least_load = ("LeastLoad", Scheduler.least_load_paper)

let cell ~scale ~speeds ~workload schedulers =
  {
    Sweep.speeds;
    workload;
    faults = None;
    discipline = Cluster.Simulation.Ps;
    schedulers;
    scale;
  }

(* The Table 3 cluster under the paper's workload at utilisation [rho]. *)
let table3 ~scale ~rho schedulers =
  let speeds = Core.Speeds.table3 in
  cell ~scale ~speeds ~workload:(Cluster.Workload.paper_default ~rho ~speeds) schedulers

let fig3 =
  {
    Sweep.title = "Figure 3: effect of speed skewness";
    xlabel = "fast speed";
    metrics = [ `Time; `Ratio; `Fairness ];
    xs = [ 1.0; 2.0; 4.0; 6.0; 8.0; 10.0; 12.0; 16.0; 20.0 ];
    cell =
      (fun ~scale fast ->
        let speeds = Core.Speeds.two_class ~n_fast:2 ~fast ~n_slow:16 ~slow:1.0 in
        cell ~scale ~speeds
          ~workload:
            (Cluster.Workload.paper_default ~rho:Config.base_utilization ~speeds)
          Schedulers.with_least_load);
  }

let fig4 =
  {
    Sweep.title = "Figure 4: effect of system size";
    xlabel = "computers";
    metrics = [ `Ratio; `Fairness ];
    xs = [ 2.0; 4.0; 6.0; 8.0; 10.0; 12.0; 14.0; 16.0; 18.0; 20.0 ];
    cell =
      (fun ~scale x ->
        let n = int_of_float x in
        if (not (Float.is_integer x)) || n < 2 || n mod 2 <> 0 then
          invalid_arg "Studies.fig4: computer counts must be even and >= 2";
        let half = n / 2 in
        let speeds =
          Core.Speeds.two_class ~n_fast:half ~fast:10.0 ~n_slow:half ~slow:1.0
        in
        cell ~scale ~speeds
          ~workload:
            (Cluster.Workload.paper_default ~rho:Config.base_utilization ~speeds)
          Schedulers.with_least_load);
  }

let fig5 =
  {
    Sweep.title = "Figure 5: effect of system load";
    xlabel = "utilization";
    metrics = [ `Ratio; `Fairness ];
    xs = [ 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ];
    cell = (fun ~scale rho -> table3 ~scale ~rho Schedulers.with_least_load);
  }

(* Exact ORR, ORR computed for (1 + err)·rho per error, and WRR. *)
let fig6 ~title errors =
  let estimated rho err =
    ( Printf.sprintf "ORR(%+.0f%%)" (100.0 *. err),
      Scheduler.Static (Core.Policy.orr_estimated ((1.0 +. err) *. rho)) )
  in
  {
    Sweep.title;
    xlabel = "utilization";
    metrics = [ `Ratio ];
    xs = [ 0.5; 0.6; 0.7; 0.8; 0.9 ];
    cell =
      (fun ~scale rho ->
        table3 ~scale ~rho ((orr :: List.map (estimated rho) errors) @ [ wrr ]));
  }

let fig6_under =
  fig6 ~title:"Figure 6(a): load underestimation" [ -0.15; -0.10; -0.05 ]

let fig6_over = fig6 ~title:"Figure 6(b): load overestimation" [ 0.05; 0.10; 0.15 ]

let ext_burstiness =
  {
    Sweep.title = "Extension: arrival burstiness sensitivity";
    xlabel = "arrival CV";
    metrics = [ `Ratio; `Fairness ];
    xs = [ 0.5; 1.0; 2.0; 3.0; 4.0; 5.0 ];
    cell =
      (fun ~scale arrival_cv ->
        let speeds = Core.Speeds.table3 in
        cell ~scale ~speeds
          ~workload:
            (Cluster.Workload.with_cv ~rho:Config.base_utilization ~arrival_cv ~speeds)
          Schedulers.with_least_load);
  }

let ext_faults =
  {
    Sweep.title = "Extension: fault injection (Table 3, rho=0.7, exponential crashes)";
    xlabel = "MTBF per computer (s)";
    metrics = [ `Time ];
    xs = [ 250.0; 1000.0; 4000.0; 16000.0; 64000.0 ];
    cell =
      (fun ~scale mtbf ->
        let c =
          table3 ~scale ~rho:Config.base_utilization Schedulers.with_least_load
        in
        {
          c with
          faults =
            Some
              (Cluster.Fault.exponential ~on_failure:Cluster.Fault.Requeue ~mtbf
                 ~mttr:50.0 ());
        });
  }

let availability_table rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Cluster availability and lost jobs per replication (averaged):\n";
  List.iter
    (fun (mtbf, points) ->
      match points with
      | [] -> ()
      | (_, p) :: _ ->
        (* The fault plan — hence availability — is scheduler-independent;
           the first column is representative. *)
        Buffer.add_string buf
          (Printf.sprintf "  MTBF %8g s: availability %.4f, lost %.1f\n" mtbf
             p.Runner.availability p.Runner.lost_jobs_per_rep))
    rows;
  Buffer.contents buf

let ext_staleness =
  {
    Sweep.title = "Extension: load-information staleness (Table 3, rho=0.7)";
    xlabel = "poll period (s)";
    metrics = [ `Ratio ];
    xs = [ 1.0; 10.0; 100.0; 1000.0; 10000.0 ];
    cell =
      (fun ~scale poll_period ->
        table3 ~scale ~rho:Config.base_utilization
          [
            ("StaleLL", Scheduler.stale_least_load ~poll_period ());
            ( "StaleLL/blind",
              Scheduler.stale_least_load ~count_in_flight:false ~poll_period () );
            orr;
            least_load;
          ]);
  }

let ext_diurnal =
  let day_length = 86_400.0 in
  {
    Sweep.title = "Extension: diurnal load swings around the mean utilisation";
    xlabel = "amplitude";
    metrics = [ `Ratio ];
    xs = [ 0.0; 0.1; 0.2; 0.3 ];
    cell =
      (fun ~scale amplitude ->
        let speeds = Core.Speeds.table3 in
        cell ~scale ~speeds
          ~workload:
            (Cluster.Workload.diurnal ~rho:Config.base_utilization ~amplitude
               ~day_length ~speeds)
          [
            ("ORR@mean", Scheduler.Static Core.Policy.orr);
            ("AdaptORR", Scheduler.adaptive_orr ());
            (* Track roughly a tenth of a day per estimation window. *)
            ( "AdaptORR/win",
              Scheduler.adaptive_orr ~period:(day_length /. 10.0) ~windowed:true () );
            wrr;
            least_load;
          ]);
  }

let ext_adaptive =
  {
    Sweep.title = "AdaptiveORR vs oracle ORR";
    xlabel = "utilization";
    metrics = [ `Ratio ];
    xs = [ 0.3; 0.5; 0.7; 0.9 ];
    cell =
      (fun ~scale rho ->
        table3 ~scale ~rho
          [
            ("ORR (oracle rho)", Scheduler.Static Core.Policy.orr);
            ("AdaptiveORR", Scheduler.adaptive_orr ());
            wrr;
          ]);
  }

let ext_convergence =
  {
    Sweep.title =
      "Extension: convergence with run length (Table 3, rho=0.9, warm-up = horizon/4)";
    xlabel = "horizon (s)";
    metrics = [ `Ratio ];
    xs = [ 5.0e4; 1.0e5; 2.0e5; 4.0e5; 8.0e5 ];
    cell =
      (fun ~scale horizon ->
        table3
          ~scale:{ scale with Config.horizon; warmup = horizon /. 4.0 }
          ~rho:0.9 [ orr; wrr; least_load ]);
  }

(* ------------------------------------------------------------------ *)
(* Comparison tables                                                   *)

(* One row per scheduler of [c], labelled with its name. *)
let per_scheduler (c : Sweep.cell) =
  List.map
    (fun s -> ([ Report.Text (fst s) ], { c with schedulers = [ s ] }))
    c.schedulers

let ratio_and_fairness = [ "scheduler"; "mean response ratio"; "fairness" ]

let partial_information =
  {
    Sweep.preamble = "";
    header = ratio_and_fairness;
    metrics = [ `Ratio; `Fairness ];
    rows =
      (fun ~scale ->
        per_scheduler
          (table3 ~scale ~rho:Config.base_utilization
             [
               orr;
               ("LeastLoad(d=2)", Scheduler.two_choices ~d:2 ());
               ("LeastLoad(d=4)", Scheduler.two_choices ~d:4 ());
               least_load;
             ]));
    note =
      "Note: JSQ(d) probes d random computers per decision; with heterogeneous\n\
       speeds it can probe only slow machines, so it needs d well above 2 to\n\
       approach full Least-Load — ORR gets most of the way with zero probes.\n";
  }

let size_mean = 76.8

(* The Bounded Pareto of mean [mean] for fixed [p] and [alpha], found by
   bisection on its lower bound k (the mean is increasing in k). *)
let bp_with_mean ~p ~alpha ~mean =
  let mean_of k =
    Dist.Bounded_pareto.raw_moment { Dist.Bounded_pareto.k; p; alpha } 1
  in
  let lo = ref 1e-6 and hi = ref p in
  for _ = 1 to 200 do
    let mid = 0.5 *. (!lo +. !hi) in
    if mean_of mid < mean then lo := mid else hi := mid
  done;
  Dist.Bounded_pareto.create { Dist.Bounded_pareto.k = !lo; p; alpha }

let ext_sizes =
  let schedulers = [ orr; wrr ] in
  {
    Sweep.preamble =
      "Extension: job-size distribution sensitivity (same mean 76.8 s)\n";
    header =
      "size distribution" :: "size CV"
      :: List.concat_map
           (fun (s, _) -> [ s ^ " resp. time"; s ^ " resp. ratio" ])
           schedulers;
    metrics = [ `Time; `Ratio ];
    rows =
      (fun ~scale ->
        let speeds = Core.Speeds.table3 in
        List.map
          (fun (label, size) ->
            ( [ Report.Text label; Report.Float (Dist.Distribution.cv size) ],
              cell ~scale ~speeds
                ~workload:
                  (Cluster.Workload.with_size ~rho:Config.base_utilization ~size speeds)
                schedulers ))
          [
            ("deterministic", Dist.Deterministic.create size_mean);
            ("erlang-4", Dist.Erlang.of_mean_cv ~mean:size_mean ~cv:0.5);
            ("exponential", Dist.Exponential.of_mean size_mean);
            ("lognormal cv=2", Dist.Lognormal.of_mean_cv ~mean:size_mean ~cv:2.0);
            ("weibull k=0.5", Dist.Weibull.create ~shape:0.5 ~scale:(size_mean /. 2.0));
            ("BP alpha=1.5", bp_with_mean ~p:21600.0 ~alpha:1.5 ~mean:size_mean);
            ("BP paper", Dist.Bounded_pareto.create_paper_default ());
          ]);
    note = "";
  }

let ext_sita =
  let schedulers =
    [
      ("WRAN", Scheduler.Static Core.Policy.wran);
      orr;
      ("SITA-E/fast", Scheduler.sita_paper ~small_to:`Fast ());
      ("SITA-E/slow", Scheduler.sita_paper ~small_to:`Slow ());
      least_load;
    ]
  in
  {
    Sweep.preamble =
      "Extension: size-aware SITA-E vs size-blind policies (mean response ratio)\n";
    header = "discipline" :: List.map fst schedulers;
    metrics = [ `Ratio ];
    rows =
      (fun ~scale ->
        let c = table3 ~scale ~rho:Config.base_utilization schedulers in
        List.map
          (fun (label, discipline) -> ([ Report.Text label ], { c with discipline }))
          [ ("PS", Cluster.Simulation.Ps); ("FCFS", Cluster.Simulation.Fcfs) ]);
    note = "";
  }

let ablation_end_to_end =
  let naive_clamp =
    let label = "ORR/naive-clamp" in
    ( label,
      Scheduler.Static_custom
        {
          label;
          make =
            (fun ~rho ~speeds ~rng:_ ->
              Core.Dispatch.round_robin
                (Core.Allocation.optimized_naive_clamp ~rho speeds));
        } )
  in
  {
    Sweep.preamble = "";
    header = ratio_and_fairness;
    metrics = [ `Ratio; `Fairness ];
    rows =
      (fun ~scale ->
        per_scheduler
          (table3 ~scale ~rho:Config.base_utilization
             (Schedulers.dispatch_ablations
             @ [
                 naive_clamp;
                 wrr;
                 least_load;
                 ("LeastLoad(instant)", Scheduler.least_load_instant);
               ])));
    note = "";
  }

let ablation_disciplines =
  {
    Sweep.preamble = "";
    header = [ "server model"; "mean response time"; "mean response ratio" ];
    metrics = [ `Time; `Ratio ];
    rows =
      (fun ~scale ->
        let speeds = [| 1.0; 2.0 |] in
        let c =
          cell ~scale ~speeds
            ~workload:
              (Cluster.Workload.poisson_exponential ~rho:0.6 ~mean_size:1.0 ~speeds)
            [ wrr ]
        in
        List.map
          (fun (model, discipline) -> ([ Report.Text model ], { c with discipline }))
          [
            ("PS (fluid)", Cluster.Simulation.Ps);
            ("RR quantum 0.1", Cluster.Simulation.Rr 0.1);
            ("RR quantum 0.01", Cluster.Simulation.Rr 0.01);
            ("FCFS", Cluster.Simulation.Fcfs);
            ("SRPT (size-aware)", Cluster.Simulation.Srpt);
          ]);
    note =
      "PS and small-quantum RR agree (the paper's model is faithful); FCFS pays\n\
       for size-blind queueing; SRPT bounds what size knowledge could buy.\n";
  }

let compare ~speeds ~rho =
  {
    Sweep.preamble = "";
    header =
      [
        "scheduler";
        "mean resp. time";
        "mean resp. ratio";
        "fairness";
        "median ratio";
        "p99 ratio";
      ];
    metrics = [ `Time; `Ratio; `Fairness; `Median; `P99 ];
    rows =
      (fun ~scale ->
        per_scheduler
          (cell ~scale ~speeds
             ~workload:(Cluster.Workload.paper_default ~rho ~speeds)
             Schedulers.with_least_load));
    note = "";
  }
