(* schedsim — command-line front end for the statsched library.

   Sub-commands:
     alloc      compute workload allocations for a speed vector
     dispatch   show a dispatch sequence for given fractions
     run        simulate one cluster/scheduler combination
     compare    simulate all five schedulers on one configuration
     experiment regenerate a paper table/figure, or run an ablation or
                extension study (table1 fig2 ... ablation-dispatch ... all) *)

open Cmdliner
module Core = Statsched_core
module Cluster = Statsched_cluster
module E = Statsched_experiments
module Rng = Statsched_prng.Rng
module Scenario = Statsched_simcheck.Scenario

(* Surface a malformed STATSCHED_JOBS before any section banner is
   printed, so the multi-minute commands fail with a single clean line. *)
let validate_jobs () = ignore (Statsched_par.Par.default_jobs ())

(* ------------------------------------------------------------------ *)
(* Shared argument definitions                                         *)

let speeds_arg =
  let parse s =
    try Ok (Core.Speeds.of_string s)
    with Invalid_argument _ -> Error (`Msg (Printf.sprintf "invalid speed list %S" s))
  in
  let print fmt s = Format.fprintf fmt "%s" (Core.Speeds.to_string s) in
  Arg.conv (parse, print)

let speeds_t =
  Arg.(
    value
    & opt speeds_arg Core.Speeds.table3
    & info [ "s"; "speeds" ] ~docv:"SPEEDS"
        ~doc:
          "Comma-separated computer speeds, with NxS groups allowed (e.g. \
           '1,1,2,10' or '5x1.0,4x1.5,1x12').  Default: the paper's Table 3 \
           configuration.")

let rho_t =
  Arg.(
    value
    & opt float 0.7
    & info [ "u"; "utilization" ] ~docv:"RHO" ~doc:"Target system utilization in (0,1).")

let seed_t =
  Arg.(
    value
    & opt int64 (Int64.of_int 20260705)
    & info [ "seed" ] ~docv:"SEED" ~doc:"Root random seed.")

let jobs_t =
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ | None ->
        Error (`Msg (Printf.sprintf "JOBS must be a positive integer (got %S)" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan replications out over $(docv) OCaml domains (default: the \
           $(b,STATSCHED_JOBS) environment variable, else the machine's \
           recommended domain count; 1 = fully sequential). Replication $(i,k) \
           always draws from RNG substream $(i,k), so the output is \
           bit-identical for every $(docv).")

let scale_t =
  let scale_conv =
    let parse = function
      | "quick" -> Ok E.Config.quick
      | "default" -> Ok E.Config.default_scale
      | "paper" -> Ok E.Config.paper
      | s -> Error (`Msg (Printf.sprintf "unknown scale %S (quick|default|paper)" s))
    in
    Arg.conv (parse, fun fmt s -> Format.fprintf fmt "%s" (E.Config.scale_name s))
  in
  Arg.(
    value
    & opt scale_conv E.Config.default_scale
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Experiment scale: quick, default, or paper (4e6 s x 10 reps).")

(* The scheduler names come from Cluster.Scheduler; the discipline and
   size-distribution name tables live in Statsched_simcheck.Scenario.
   Both are shared with the verification subsystem so its
   counterexamples replay through this exact CLI. *)

let scheduler_t =
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) Cluster.Scheduler.names)) "orr"
    & info [ "p"; "policy" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf
             "Scheduler: %s.  jsq-d probes speed-weighted; jsq-d-uniform is \
              the pre-weighting sampler kept for replaying old runs."
             (String.concat ", " Cluster.Scheduler.names)))

let computers_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "computers" ] ~docv:"N"
        ~doc:
          "Simulate a synthetic two-class cluster of $(docv) computers (10% \
           at speed 10, 90% at speed 1) — the many-server scaling \
           configuration.  Overrides $(b,--speeds).")

let d_t =
  (* Declared as the short option [-d]; [main] rewrites a literal [--d]
     to [-d] before parsing (cmdliner reserves double-dash names for
     multi-character options, and [--d] would otherwise prefix-match
     [--discipline]). *)
  Arg.(
    value
    & opt (some int) None
    & info [ "d" ] ~docv:"D"
        ~doc:
          "Sample size for the jsq-d and two-choices policies (default 2); \
           must satisfy 1 <= $(docv) <= cluster size.  [--d $(docv)] is \
           accepted as a synonym.")

let verbose_t =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Log simulation diagnostics to stderr.")

let setup_logging verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

(* ------------------------------------------------------------------ *)
(* alloc                                                               *)

let alloc_cmd =
  let run speeds rho =
    if not (0.0 < rho && rho < 1.0) then `Error (false, "utilization must be in (0,1)")
    else begin
      let weighted = Core.Allocation.weighted speeds in
      let optimized = Core.Allocation.optimized ~rho speeds in
      let rows =
        List.init (Array.length speeds) (fun i ->
            [
              E.Report.Int i;
              E.Report.Float speeds.(i);
              E.Report.Percent weighted.(i);
              E.Report.Percent optimized.(i);
            ])
      in
      print_string
        (E.Report.render
           ~header:[ "computer"; "speed"; "weighted"; "optimized" ]
           ~rows);
      let f alloc = Core.Allocation.objective ~rho ~speeds ~alloc in
      Printf.printf
        "\nobjective F (lower is better): weighted %.6f, optimized %.6f\n\
         predicted mean-response-ratio improvement: %.1f%%\n"
        (f weighted) (f optimized)
        (let mu = 1.0 in
         let lambda = Core.Mm1.lambda_of_utilization ~mu ~rho ~speeds in
         let r alloc = Core.Mm1.mean_response_ratio ~mu ~lambda ~speeds ~alloc in
         100.0 *. (1.0 -. (r optimized /. r weighted)));
      `Ok ()
    end
  in
  let term = Term.(ret (const run $ speeds_t $ rho_t)) in
  Cmd.v
    (Cmd.info "alloc" ~doc:"Compute weighted and optimized workload allocations.")
    term

(* ------------------------------------------------------------------ *)
(* dispatch                                                            *)

let dispatch_cmd =
  let fractions_t =
    let fractions_conv =
      let parse s =
        try
          let fs =
            Array.of_list
              (List.map float_of_string (String.split_on_char ',' (String.trim s)))
          in
          Ok fs
        with _ -> Error (`Msg "invalid fraction list")
      in
      Arg.conv (parse, fun fmt _ -> Format.fprintf fmt "<fractions>")
    in
    Arg.(
      value
      & opt fractions_conv [| 0.125; 0.125; 0.25; 0.5 |]
      & info [ "f"; "fractions" ] ~docv:"FRACTIONS"
          ~doc:"Comma-separated workload fractions summing to 1.")
  in
  let count_t =
    Arg.(value & opt int 32 & info [ "n" ] ~docv:"N" ~doc:"Number of dispatch decisions.")
  in
  let run fractions n seed =
    try
      let rr = Core.Dispatch.round_robin fractions in
      let rand = Core.Dispatch.random ~rng:(Rng.create ~seed ()) fractions in
      let seq d = String.concat " " (List.init n (fun _ -> string_of_int (Core.Dispatch.select d + 1))) in
      Printf.printf "round-robin: %s\n" (seq rr);
      Printf.printf "random:      %s\n" (seq rand);
      `Ok ()
    with Invalid_argument m -> `Error (false, m)
  in
  let term = Term.(ret (const run $ fractions_t $ count_t $ seed_t)) in
  Cmd.v
    (Cmd.info "dispatch"
       ~doc:"Show the dispatch sequences produced for given workload fractions.")
    term

(* ------------------------------------------------------------------ *)
(* run / compare                                                       *)

let discipline_t =
  let discipline_conv =
    let parse s =
      match Scenario.discipline_of_string s with
      | Some d -> Ok d
      | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown discipline %S (ps, fcfs, srpt or rr:QUANTUM)" s))
    in
    Arg.conv (parse, fun fmt d ->
        Format.pp_print_string fmt (Scenario.discipline_to_string d))
  in
  Arg.(
    value
    & opt discipline_conv Cluster.Simulation.Ps
    & info [ "discipline" ] ~docv:"DISCIPLINE"
        ~doc:
          "Per-computer service discipline: ps (processor sharing, the \
           paper's model), fcfs, srpt, or rr:QUANTUM (quantum round-robin).")

let arrival_cv_t =
  Arg.(
    value
    & opt float 3.0
    & info [ "arrival-cv" ] ~docv:"CV"
        ~doc:
          "Coefficient of variation of the inter-arrival times: 1 = Poisson, \
           >1 hyperexponential, <1 Erlang.  Default: the paper's bursty 3.")

let size_dist_t =
  let size_dist_conv =
    let parse s =
      match Scenario.size_dist_of_string s with
      | Some d -> Ok d
      | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown size distribution %S (exp, bp, det, weibull:K, \
                 lognormal:CV, erlang:K or hyperexp:CV)" s))
    in
    Arg.conv (parse, fun fmt d ->
        Format.pp_print_string fmt (Scenario.size_dist_to_string d))
  in
  Arg.(
    value
    & opt size_dist_conv Scenario.Bp_paper
    & info [ "size-dist" ] ~docv:"DIST"
        ~doc:
          "Job-size distribution: bp (the paper's Bounded Pareto, mean \
           76.8 s), exp, det, weibull:K, lognormal:CV, erlang:K or \
           hyperexp:CV — all scaled to $(b,--mean-size) except bp.")

let mean_size_t =
  Arg.(
    value
    & opt float 76.8
    & info [ "mean-size" ] ~docv:"SECONDS"
        ~doc:
          "Mean job size in speed-1 seconds for $(b,--size-dist) (ignored by \
           bp, which keeps its own 76.8 s mean).")

let horizon_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "horizon" ] ~docv:"SECONDS"
        ~doc:"Override the $(b,--scale) horizon (simulated seconds).")

let warmup_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "warmup" ] ~docv:"SECONDS"
        ~doc:"Override the $(b,--scale) warm-up period (simulated seconds).")

let mtbf_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "mtbf" ] ~docv:"SECONDS"
        ~doc:
          "Inject exponential crash/repair faults with this mean time \
           between failures per computer.  Omitted: a reliable cluster.")

let mttr_t =
  Arg.(
    value
    & opt float 50.0
    & info [ "mttr" ] ~docv:"SECONDS"
        ~doc:"Mean time to repair a crashed computer (with $(b,--mtbf)).")

let on_failure_t =
  let names = [ "drop"; "requeue"; "resume" ] in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "requeue"
    & info [ "on-failure" ] ~docv:"POLICY"
        ~doc:
          "What happens to jobs on a crashed computer: drop (lost), \
           requeue (re-dispatched, restart from scratch) or resume \
           (wait out the repair).")

let fault_oblivious_t =
  Arg.(
    value & flag
    & info [ "fault-oblivious" ]
        ~doc:
          "Do not tell the scheduler about failures (no blacklist / \
           Algorithm 1 re-run on the surviving speed vector).")

let sanitize_t =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Enable the runtime invariant sanitizers (clock monotonicity, \
           event-heap order, job conservation, allocation feasibility).  \
           Sanitized runs are bit-identical to unsanitized ones; a violated \
           invariant aborts with a diagnostic.  Also enabled by setting \
           $(b,STATSCHED_SANITIZE=1) in the environment.")

let fault_plan ~mtbf ~mttr ~on_failure ~oblivious =
  Option.map
    (fun mtbf ->
      let on_failure =
        match Cluster.Fault.on_failure_of_string on_failure with
        | Some p -> p
        | None -> invalid_arg ("unknown on-failure policy " ^ on_failure)
      in
      let reaction =
        if oblivious then Cluster.Fault.Oblivious else Cluster.Fault.Blacklist
      in
      Cluster.Fault.exponential ~on_failure ~reaction ~mtbf ~mttr ())
    mtbf

let print_result (r : Cluster.Simulation.result) =
  let m = r.Cluster.Simulation.metrics in
  Printf.printf "scheduler: %s\n" r.Cluster.Simulation.scheduler_name;
  Printf.printf "jobs measured: %d (total arrivals %d)\n" m.Core.Metrics.jobs
    r.Cluster.Simulation.total_arrivals;
  Printf.printf "mean response time:  %.4f s\n" m.Core.Metrics.mean_response_time;
  Printf.printf "mean response ratio: %.4f\n" m.Core.Metrics.mean_response_ratio;
  Printf.printf "fairness (std of ratio): %.4f\n" m.Core.Metrics.fairness;
  Printf.printf "median / p99 response ratio: %.4f / %.4f\n"
    r.Cluster.Simulation.median_response_ratio r.Cluster.Simulation.p99_response_ratio;
  print_string
    (E.Report.render
       ~header:
         [ "computer"; "speed"; "dispatched"; "completed"; "utilization";
           "mean jobs (L)" ]
       ~rows:
         (List.init
            (Array.length r.Cluster.Simulation.per_computer)
            (fun i ->
              let pc = r.Cluster.Simulation.per_computer.(i) in
              [
                E.Report.Int i;
                E.Report.Float pc.Cluster.Simulation.speed;
                E.Report.Int pc.Cluster.Simulation.dispatched;
                E.Report.Int pc.Cluster.Simulation.completed;
                E.Report.Percent pc.Cluster.Simulation.utilization;
                E.Report.Float pc.Cluster.Simulation.mean_jobs;
              ])));
  match r.Cluster.Simulation.fault_summary with
  | None -> ()
  | Some s ->
    Printf.printf "faults: %d failures, %d jobs lost, availability %.4f\n"
      s.Cluster.Fault.failures s.Cluster.Fault.lost_jobs
      s.Cluster.Fault.availability;
    Array.iteri
      (fun i d ->
        if d > 0.0 then
          Printf.printf "  computer %d: %.1f s of lost capacity\n" i d)
      s.Cluster.Fault.downtime

let run_cmd =
  let probe_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "probe" ] ~docv:"FILE"
          ~doc:
            "Sample every computer's queue length each 10 simulated seconds \
             and write the time series to $(docv) as CSV.")
  in
  let metrics_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write end-of-run metrics (per-computer utilisation and dispatch \
             drift, response-time/-ratio histograms, fault accounting, DES \
             self-profiling) to $(docv) in the Prometheus text exposition \
             format.")
  in
  let stats_interval_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "stats-interval" ] ~docv:"SECONDS"
          ~doc:
            "Print a progress line to stderr every $(docv) simulated seconds \
             (sim-time, arrivals, completions, events, wall-clock events/s).")
  in
  let serve_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "serve" ] ~docv:"PORT"
          ~doc:
            "Serve live telemetry over HTTP on 127.0.0.1:$(docv) while the \
             simulation runs: GET /metrics (Prometheus text exposition), \
             /healthz, and /state (JSON per-computer gauges).  Port 0 picks \
             an ephemeral port (printed to stderr).  Serving is passive — \
             the run is bit-identical to the same seed without it.")
  in
  let journal_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Record a bounded structured run journal (sampled dispatch/\
             queue-depth/completion/drop/rate records plus collector \
             summary) and write it to $(docv); cross-validate it with \
             $(b,tracestat check), or render it as a per-job CSV or a \
             Chrome trace with $(b,tracestat export).")
  in
  let journal_capacity_t =
    Arg.(
      value
      & opt int 4096
      & info [ "journal-capacity" ] ~docv:"N"
          ~doc:
            "Maximum records the journal retains; memory grows with the \
             records kept, 48 bytes each, up to $(docv) of them.  On \
             overflow the sampling stride doubles.")
  in
  let journal_sample_t =
    Arg.(
      value
      & opt int 1
      & info [ "journal-sample" ] ~docv:"K"
          ~doc:"Initial systematic sampling stride: record every K-th event.")
  in
  let run speeds rho policy seed scale discipline arrival_cv size_dist mean_size
      horizon warmup probe_file metrics_out stats_interval
      serve_port journal_file journal_capacity journal_sample mtbf mttr
      on_failure oblivious computers d sanitize verbose =
    setup_logging verbose;
    try
      (match mtbf with
      | Some m when m <= 0.0 || Float.is_nan m ->
        invalid_arg (Printf.sprintf "--mtbf must be positive (got %g)" m)
      | Some _ when mttr <= 0.0 || Float.is_nan mttr ->
        invalid_arg (Printf.sprintf "--mttr must be positive (got %g)" mttr)
      | _ -> ());
      (match computers with
      | Some n when n < 1 ->
        invalid_arg (Printf.sprintf "--computers must be at least 1 (got %d)" n)
      | _ -> ());
      let speeds =
        match computers with
        | Some n -> E.Ext_scale.speeds_for n
        | None -> speeds
      in
      (match d with
      | Some d when d < 1 ->
        invalid_arg (Printf.sprintf "--d must be at least 1 (got %d)" d)
      | Some d when d > Array.length speeds ->
        invalid_arg
          (Printf.sprintf "--d must not exceed the cluster size %d (got %d)"
             (Array.length speeds) d)
      | _ -> ());
      let horizon = Option.value horizon ~default:scale.E.Config.horizon in
      let warmup = Option.value warmup ~default:scale.E.Config.warmup in
      if not (horizon > 0.0) then
        invalid_arg (Printf.sprintf "--horizon must be positive (got %g)" horizon);
      if not (0.0 <= warmup && warmup < horizon) then
        invalid_arg
          (Printf.sprintf "--warmup must lie in [0, horizon) (got %g)" warmup);
      if not (mean_size > 0.0) then
        invalid_arg
          (Printf.sprintf "--mean-size must be positive (got %g)" mean_size);
      let scenario =
        Scenario.v ~discipline ~arrival_cv ~size:size_dist ~mean_size ~seed ?d
          ~speeds ~rho ~policy ()
      in
      let workload = Scenario.workload scenario in
      let faults = fault_plan ~mtbf ~mttr ~on_failure ~oblivious in
      let cfg =
        Cluster.Simulation.default_config ?faults ~discipline ~horizon ~warmup
          ~seed ~speeds ~workload
          ~scheduler:(Scenario.scheduler_of_name ~d:scenario.Scenario.d policy) ()
      in
      let probe = Option.map (fun _ -> Cluster.Probe.create ()) probe_file in
      let journal =
        Option.map
          (fun _ ->
            Statsched_obs.Journal.create ~capacity:journal_capacity
              ~sample_every:journal_sample ())
          journal_file
      in
      let telemetry =
        match (metrics_out, journal, serve_port) with
        | None, None, None -> None
        | _ -> Some (Cluster.Telemetry.create ?journal cfg)
      in
      let server =
        match (serve_port, telemetry) with
        | Some port, Some t ->
          let srv = Cluster.Telemetry.serve t ~port in
          Printf.eprintf
            "serving telemetry on http://127.0.0.1:%d (/metrics /healthz \
             /state)\n\
             %!"
            (Statsched_obs.Http.port srv);
          Some srv
        | _ -> None
      in
      let wall_start = Statsched_obs.Clock.now () in
      let progress =
        Option.map
          (fun period ->
            ( period,
              fun (p : Cluster.Simulation.progress) ->
                let wall = Statsched_obs.Clock.elapsed ~since:wall_start in
                let rate =
                  if wall > 0.0 then float_of_int p.Cluster.Simulation.events /. wall
                  else 0.0
                in
                Printf.eprintf
                  "progress: t=%.0f arrivals=%d completions=%d events=%d \
                   (%.0f events/s wall)\n\
                   %!"
                  p.Cluster.Simulation.sim_time p.Cluster.Simulation.arrivals
                  p.Cluster.Simulation.completions p.Cluster.Simulation.events
                  rate ))
          stats_interval
      in
      let result =
        Cluster.Simulation.run
          ?sanitize:(if sanitize then Some true else None)
          (* Every CLI observer (Probe, Telemetry, the journal)
             copies job fields out synchronously, so job-record recycling
             can stay on. *)
          ~hooks_retain_jobs:false
          ?metric_histograms:(Option.map Cluster.Telemetry.histograms telemetry)
          ?on_engine:
            (Option.map (fun t e -> Cluster.Telemetry.set_engine t e) telemetry)
          ?on_dispatch:
            (Option.map (fun t job -> Cluster.Telemetry.on_dispatch t job) telemetry)
          ?on_completion:
            (Option.map (fun t job -> Cluster.Telemetry.on_completion t job) telemetry)
          ?on_tick:(Option.map (fun p -> (10.0, Cluster.Probe.on_tick p)) probe)
          ?on_drop:(Option.map (fun t job -> Cluster.Telemetry.on_drop t job) telemetry)
          ?on_rate_change:
            (Option.map
               (fun t ~time ~computer ~rate ->
                 Cluster.Telemetry.on_rate_change t ~time ~computer ~rate)
               telemetry)
          ?on_progress:progress cfg
      in
      (match (probe, probe_file) with
      | Some p, Some path ->
        Cluster.Probe.write_csv p path;
        Printf.printf "probe: %d samples (peak queue %d) -> %s\n"
          (Cluster.Probe.sample_count p) (Cluster.Probe.peak p) path
      | _ -> ());
      (match telemetry with
      | None -> ()
      | Some t ->
        Cluster.Telemetry.finalize t result;
        (match metrics_out with
        | Some path ->
          Cluster.Telemetry.write_metrics t path;
          Printf.printf "metrics: %d series -> %s\n"
            (Cluster.Telemetry.metric_count t) path
        | None -> ());
        match (journal_file, Cluster.Telemetry.journal t) with
        | Some path, Some j ->
          Cluster.Telemetry.write_journal t result path;
          Printf.printf "journal: %d records (stride %d) -> %s\n"
            (Statsched_obs.Journal.length j)
            (Statsched_obs.Journal.stride j)
            path
        | _ -> ());
      Option.iter Statsched_obs.Http.stop server;
      print_result result;
      `Ok ()
    with
    | Invalid_argument m -> `Error (false, m)
    | Cluster.Sanitize.Violation { invariant; message } ->
      `Error (false, Printf.sprintf "sanitizer (%s): %s" invariant message)
  in
  let term =
    Term.(
      ret
        (const run $ speeds_t $ rho_t $ scheduler_t $ seed_t $ scale_t
       $ discipline_t $ arrival_cv_t $ size_dist_t $ mean_size_t $ horizon_t
       $ warmup_t $ probe_t $ metrics_out_t $ stats_interval_t $ serve_t
       $ journal_t $ journal_capacity_t $ journal_sample_t $ mtbf_t $ mttr_t
       $ on_failure_t $ fault_oblivious_t $ computers_t $ d_t $ sanitize_t
       $ verbose_t))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Simulate one scheduler on a cluster with the paper's workload \
          (Bounded-Pareto sizes, bursty arrivals).")
    term

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

(* What every study runs with: the command line's scale, seed and
   replication fan-out, and the --csv directory, if any. *)
type study = {
  scale : E.Config.scale;
  seed : int64;
  jobs : int option;
  csv_dir : string option;
}

let write_csv st file contents =
  match st.csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir file in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents);
    Printf.printf "wrote %s\n" path

(* A sweep entry: the banner, then every panel of [sweeps] (run in
   order), separated by blank lines; with [csv], panel i also goes to
   CSV-i.csv. *)
let sweep_study ?csv banner sweeps ({ scale; seed; jobs; _ } as st) =
  E.Report.print_section banner;
  let panels =
    List.concat_map
      (fun s -> E.Sweep.sweeps s (E.Sweep.run ~scale ~seed ?jobs s))
      sweeps
  in
  print_string (String.concat "\n" (List.map E.Report.render_sweep panels));
  Option.iter
    (fun name ->
      List.iteri
        (fun i panel ->
          write_csv st (Printf.sprintf "%s-%d.csv" name i) (E.Report.sweep_to_csv panel))
        panels)
    csv

(* A comparison-table entry: the banner, if any, then [table] measured
   and printed. *)
let table_study ?banner table { scale; seed; jobs; _ } =
  Option.iter E.Report.print_section banner;
  print_string
    (E.Sweep.table_to_report table (E.Sweep.run_table ~scale ~seed ?jobs table))

let compare_cmd =
  let run speeds rho seed scale jobs =
    try
      table_study (E.Studies.compare ~speeds ~rho)
        { scale; seed; jobs; csv_dir = None };
      `Ok ()
    with Invalid_argument m -> `Error (false, m)
  in
  let term = Term.(ret (const run $ speeds_t $ rho_t $ seed_t $ scale_t $ jobs_t)) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Simulate all five schedulers (WRAN/ORAN/WRR/ORR/Least-Load) on one cluster.")
    term

(* Every reproduction study, in the order the vocabulary lists them.
   Each prints its section banner before it starts computing. *)
let studies =
  [
    ( "table1",
      fun { scale; seed; jobs; _ } ->
        E.Report.print_section "Table 1";
        print_string (E.Table1.to_report (E.Table1.run ~scale ~seed ?jobs ())) );
    ( "table2",
      fun _ ->
        E.Report.print_section "Table 2: policy matrix (definitional)";
        let row = List.map (fun s -> E.Report.Text s) in
        print_string
          (E.Report.render
             ~header:[ "dispatching \\ allocation"; "weighted"; "optimized" ]
             ~rows:
               [
                 row [ "random"; "WRAN"; "ORAN" ]; row [ "round-robin"; "WRR"; "ORR" ];
               ])
    );
    ( "table3",
      fun _ ->
        E.Report.print_section "Table 3: base system configuration";
        let speeds = Core.Speeds.table3 in
        let count s =
          Array.fold_left (fun n x -> if Float.equal x s then n + 1 else n) 0 speeds
        in
        let rows =
          List.map
            (fun s -> [ E.Report.Float s; E.Report.Int (count s) ])
            (List.sort_uniq Float.compare (Array.to_list speeds))
        in
        print_string (E.Report.render ~header:[ "speed"; "number" ] ~rows);
        Printf.printf "aggregate speed: %g\n" (Core.Speeds.total speeds) );
    ( "fig2",
      fun { seed; jobs; _ } ->
        E.Report.print_section "Figure 2";
        print_string (E.Fig2.to_report (E.Fig2.run ~seed ?jobs ())) );
    ("fig3", sweep_study ~csv:"fig3" "Figure 3" [ E.Studies.fig3 ]);
    ("fig4", sweep_study ~csv:"fig4" "Figure 4" [ E.Studies.fig4 ]);
    ("fig5", sweep_study ~csv:"fig5" "Figure 5" [ E.Studies.fig5 ]);
    ( "fig6",
      sweep_study ~csv:"fig6" "Figure 6" [ E.Studies.fig6_under; E.Studies.fig6_over ] );
    ( "ext-burstiness",
      sweep_study ~csv:"ext-burstiness" "Extension: arrival burstiness"
        [ E.Studies.ext_burstiness ] );
    ( "ext-sizes",
      table_study ~banner:"Extension: size-distribution sensitivity" E.Studies.ext_sizes
    );
    ( "ext-faults",
      fun { scale; seed; jobs; _ } ->
        E.Report.print_section "Extension: fault injection";
        let rows = E.Sweep.run ~scale ~seed ?jobs E.Studies.ext_faults in
        print_string
          (E.Sweep.to_report E.Studies.ext_faults rows
          ^ "\n"
          ^ E.Studies.availability_table rows) );
    ( "ext-staleness",
      sweep_study
        "Extension: load-information staleness (when does ORR beat polling?)"
        [ E.Studies.ext_staleness ] );
    ( "ext-partial-information",
      table_study
        ~banner:"Extension: partial-information dynamic baselines (Table 3, rho=0.7)"
        E.Studies.partial_information );
    ( "ext-diurnal",
      sweep_study "Extension: diurnal (non-stationary) load" [ E.Studies.ext_diurnal ] );
    ( "ext-adaptive",
      sweep_study "Extension: self-tuning ORR (online load estimation, Table 3)"
        [ E.Studies.ext_adaptive ] );
    ( "ext-sita",
      table_study ~banner:"Extension: size-aware SITA-E vs size-blind policies"
        E.Studies.ext_sita );
    ( "ext-convergence",
      sweep_study "Extension: convergence with run length" [ E.Studies.ext_convergence ]
    );
    ( "scale-sweep",
      fun ({ scale; seed; jobs; _ } as st) ->
        E.Report.print_section "Extension: many-server scale sweep";
        (* The time knob here is jobs per cell, not simulated seconds:
           quick = n <= 10^3 smoke (CI), default = the full grid at 10^6
           jobs, paper = the 10^7-job headline runs. *)
        let ns, jobs_target =
          if E.Config.equal_scale scale E.Config.paper then
            (E.Ext_scale.default_ns, E.Ext_scale.default_jobs_target)
          else if E.Config.equal_scale scale E.Config.quick then ([ 100; 1_000 ], 5.0e4)
          else (E.Ext_scale.default_ns, 1.0e6)
        in
        let t = E.Ext_scale.run ~seed ?jobs ~ns ~jobs_target () in
        print_string (E.Ext_scale.to_report t);
        write_csv st "scale-sweep.csv" (E.Ext_scale.to_csv t) );
    ( "ablation-dispatch",
      fun { seed; _ } ->
        E.Report.print_section "Ablation: Algorithm 2 design choices";
        print_string
          (E.Fig2.dispatch_smoothness_report (E.Fig2.dispatch_smoothness ~seed ())) );
    ( "ablation-end-to-end",
      table_study ~banner:"Ablation: end-to-end scheduler variants"
        E.Studies.ablation_end_to_end );
    ( "ablation-disciplines",
      table_study ~banner:"Ablation: service disciplines" E.Studies.ablation_disciplines
    );
    ( "ablation-intervals",
      fun { seed; _ } ->
        E.Report.print_section "Ablation: deviation metric vs interval length";
        print_string
          (E.Fig2.interval_lengths_report (E.Fig2.interval_lengths ~seed ())) );
  ]

(* The studies [all] runs, in list order. *)
let in_all =
  [ "table1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "ext-burstiness"; "ext-sizes";
    "ext-faults" ]

let experiments =
  let all st =
    List.iter (fun (name, run) -> if List.mem name in_all then run st) studies
  in
  studies @ [ ("all", all) ]

let experiment_cmd =
  let which_t =
    Arg.(
      required
      & pos 0 (some (enum experiments)) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (Printf.sprintf "One of %s." (String.concat ", " (List.map fst experiments))))
  in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:
            "Also write each figure's series (with half-width columns) as \
             CSV files into $(docv).")
  in
  let run study scale seed jobs csv_dir =
    try
      validate_jobs ();
      study { scale; seed; jobs; csv_dir };
      `Ok ()
    with Invalid_argument m | Sys_error m -> `Error (false, m)
  in
  let term = Term.(ret (const run $ which_t $ scale_t $ seed_t $ jobs_t $ csv_t)) in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Regenerate a table or figure from the paper, or run an ablation or \
          extension study.")
    term

(* ------------------------------------------------------------------ *)
(* theory                                                              *)

let theory_cmd =
  let mean_size_t =
    Arg.(
      value
      & opt float 76.8
      & info [ "mean-size" ] ~docv:"SECONDS"
          ~doc:"Mean job size in speed-1 seconds (default: the paper's 76.8).")
  in
  let run speeds rho mean_size =
    if not (0.0 < rho && rho < 1.0) then `Error (false, "utilization must be in (0,1)")
    else if mean_size <= 0.0 then `Error (false, "mean size must be positive")
    else begin
      let mu = 1.0 /. mean_size in
      let lambda = Core.Mm1.lambda_of_utilization ~mu ~rho ~speeds in
      let weighted = Core.Allocation.weighted speeds in
      let optimized = Core.Allocation.optimized ~rho speeds in
      Printf.printf
        "M/M/1-PS predictions: lambda = %.5g jobs/s, mu = %.5g, aggregate speed %g\n\n"
        lambda mu (Core.Speeds.total speeds);
      let per_computer alloc =
        List.init (Array.length speeds) (fun i ->
            let speed = speeds.(i) in
            let alpha = alloc.(i) in
            [
              E.Report.Int i;
              E.Report.Float speed;
              E.Report.Percent alpha;
              E.Report.Percent (Core.Mm1.server_utilization ~mu ~lambda ~speed ~alpha);
              E.Report.Float
                (Core.Mm1.server_mean_response_time ~mu ~lambda ~speed ~alpha);
            ])
      in
      let header = [ "computer"; "speed"; "share"; "utilization"; "mean resp. time" ] in
      print_endline "weighted allocation:";
      print_string (E.Report.render ~header ~rows:(per_computer weighted));
      print_endline "\noptimized allocation (Algorithm 1):";
      print_string (E.Report.render ~header ~rows:(per_computer optimized));
      let t alloc = Core.Mm1.mean_response_time ~mu ~lambda ~speeds ~alloc in
      let r alloc = Core.Mm1.mean_response_ratio ~mu ~lambda ~speeds ~alloc in
      Printf.printf
        "\nsystem:   weighted  T=%.4g R=%.4g   |   optimized  T=%.4g R=%.4g   \
         (%.1f%% better)\n"
        (t weighted) (r weighted) (t optimized) (r optimized)
        (100.0 *. (1.0 -. (t optimized /. t weighted)));
      Printf.printf
        "parked computers under optimized allocation: %d (Theorem 2 cutoff)\n"
        (Core.Allocation.optimized_cutoff ~rho speeds);
      `Ok ()
    end
  in
  let term = Term.(ret (const run $ speeds_t $ rho_t $ mean_size_t)) in
  Cmd.v
    (Cmd.info "theory"
       ~doc:
         "Print the analytical M/M/1-PS predictions (per-computer utilisation \
          and response times) for a configuration, without simulating.")
    term

(* ------------------------------------------------------------------ *)
(* report / claims / table                                             *)

let report_cmd =
  let out_t =
    Arg.(
      value
      & opt string "statsched-report.md"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output Markdown file.")
  in
  let run scale seed jobs out =
    try
      validate_jobs ();
      Printf.printf "running all experiments at scale %s (this may take a while)...\n%!"
        (E.Config.scale_name scale);
      let doc = E.Md_report.generate_fresh ~scale ~seed ?jobs () in
      E.Md_report.write ~path:out doc;
      Printf.printf "wrote %s (%d bytes)\n" out (String.length doc);
      `Ok ()
    with Invalid_argument m | Sys_error m -> `Error (false, m)
  in
  let term = Term.(ret (const run $ scale_t $ seed_t $ jobs_t $ out_t)) in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Regenerate every table and figure and write a self-contained \
          Markdown reproduction report with the paper-claims scoreboard.")
    term

let claims_cmd =
  let run scale seed jobs =
    try
      validate_jobs ();
      let inputs = E.Paper_claims.gather ~scale ~seed ?jobs () in
      print_string (E.Paper_claims.to_report (E.Paper_claims.evaluate inputs));
      `Ok ()
    with Invalid_argument m -> `Error (false, m)
  in
  let term = Term.(ret (const run $ scale_t $ seed_t $ jobs_t)) in
  Cmd.v
    (Cmd.info "claims"
       ~doc:"Evaluate the 18 executable paper claims and print the scoreboard.")
    term

let table_cmd =
  let grid_t =
    Arg.(value & opt int 99 & info [ "grid" ] ~docv:"N" ~doc:"Grid points in (0,1).")
  in
  let at_t =
    Arg.(
      value
      & opt (list float) [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]
      & info [ "at" ] ~docv:"RHOS" ~doc:"Utilisations to print rows for.")
  in
  let run speeds grid at =
    try
      let t = Core.Alloc_table.build ~grid speeds in
      let rows =
        List.map
          (fun (rho, alloc) ->
            E.Report.Percent rho
            :: Array.to_list (Array.map (fun a -> E.Report.Percent a) alloc))
          (Core.Alloc_table.to_report_rows t ~at)
      in
      let header =
        "rho"
        :: List.init (Array.length speeds) (fun i ->
               Printf.sprintf "c%d (s=%g)" i speeds.(i))
      in
      print_string (E.Report.render ~header ~rows);
      Printf.printf
        "\nmax interpolation error vs exact Algorithm 1 (mid-range): %.2e\n"
        (Core.Alloc_table.max_interpolation_error ~lo:0.2 ~hi:0.95 t ~samples:200);
      `Ok ()
    with Invalid_argument m -> `Error (false, m)
  in
  let term = Term.(ret (const run $ speeds_t $ grid_t $ at_t)) in
  Cmd.v
    (Cmd.info "table"
       ~doc:
         "Precompute the optimized-allocation lookup table over a utilisation \
          grid and print selected rows.")
    term

let () =
  let doc =
    "Static job scheduling in a network of heterogeneous computers (Tang & \
     Chanson, ICPP 2000)"
  in
  let info = Cmd.info "schedsim" ~version:"0.1.0" ~doc in
  (* Accept [--d K] as a synonym of [-d K]: cmdliner reserves [--name]
     for multi-character names and would otherwise prefix-match [--d]
     onto [--discipline]. *)
  let argv =
    Sys.argv |> Array.to_list
    |> List.concat_map (fun a ->
           if String.equal a "--d" then [ "-d" ]
           else if String.length a > 4 && String.equal (String.sub a 0 4) "--d="
           then [ "-d"; String.sub a 4 (String.length a - 4) ]
           else [ a ])
    |> Array.of_list
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group info [ alloc_cmd; dispatch_cmd; run_cmd; compare_cmd; experiment_cmd;
           theory_cmd; report_cmd; claims_cmd; table_cmd ]))
