(* schedsimd — the scheduler-as-a-service daemon.

   Wraps Cluster.Daemon (a Simulation.Driver in external-arrival mode
   plus Telemetry) in a long-running process: jobs arrive over HTTP
   (POST /jobs), the virtual clock tracks scaled wall time, and SIGTERM
   or POST /drain runs the backlog dry, finalizes the run and writes the
   journal before exit. *)

open Cmdliner
module Core = Statsched_core
module Cluster = Statsched_cluster

let speeds_arg =
  let parse s =
    try Ok (Core.Speeds.of_string s)
    with Invalid_argument _ ->
      Error (`Msg (Printf.sprintf "invalid speed list %S" s))
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
    & opt float 0.6
    & info [ "u"; "utilization" ] ~docv:"RHO"
        ~doc:
          "Offered utilisation the optimized allocations are computed for \
           (Algorithm 1's load estimate; the daemon does not generate \
           arrivals itself).")

let policy_t =
  Arg.(
    value
    & opt string "orr"
    & info [ "p"; "policy" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf
             "Initial scheduling policy: %s.  Sampling dispatchers accept a \
              ':d' probe-count suffix (e.g. jsq-d:4).  Hot-swap at runtime \
              with PUT /policy."
             (String.concat ", " Cluster.Scheduler.names)))

let port_t =
  Arg.(
    value
    & opt int 8080
    & info [ "port" ] ~docv:"PORT"
        ~doc:
          "TCP port to listen on (127.0.0.1); 0 picks an ephemeral port \
           (printed on start-up).")

let time_scale_t =
  Arg.(
    value
    & opt float 1.0
    & info [ "time-scale" ] ~docv:"X"
        ~doc:
          "Virtual seconds per wall-clock second.  At 1000, a 2-second \
           job finishes in 2 ms of wall time — handy for exercising the \
           daemon quickly.")

let backlog_t =
  Arg.(
    value
    & opt int 1000
    & info [ "backlog-limit" ] ~docv:"N"
        ~doc:
          "Admission control: once $(docv) jobs are in the system, \
           POST /jobs answers 429 until completions free capacity.")

let seed_t =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let horizon_t =
  Arg.(
    value
    & opt float 1.0e12
    & info [ "horizon" ] ~docv:"SECONDS"
        ~doc:
          "Virtual-time cap recorded in the run configuration (validation \
           and journal metadata only; the run actually ends at drain time).")

let journal_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Record a bounded structured run journal and write it to $(docv) \
           on drain (cross-validate with 'tracestat check').")

let journal_capacity_t =
  Arg.(
    value
    & opt int 65536
    & info [ "journal-capacity" ] ~docv:"N"
        ~doc:
          "Maximum records the journal retains; memory grows with the \
           records kept, 48 bytes each, up to $(docv) of them.")

let metrics_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the final Prometheus exposition to $(docv) on drain.")

let run speeds rho policy port time_scale backlog_limit seed horizon
    journal_file journal_capacity metrics_out =
  match Cluster.Scheduler.of_name policy with
  | Error msg -> `Error (false, msg)
  | Ok scheduler ->
    let workload = Cluster.Workload.paper_default ~rho ~speeds in
    let cfg =
      Cluster.Simulation.default_config ~horizon ~warmup:0.0 ~seed ~speeds
        ~workload ~scheduler ()
    in
    let journal =
      Option.map
        (fun _ -> Statsched_obs.Journal.create ~capacity:journal_capacity ())
        journal_file
    in
    let daemon =
      Cluster.Daemon.create ?journal ~time_scale ~backlog_limit cfg
    in
    let server = Cluster.Daemon.serve daemon ~port in
    let bound = Statsched_obs.Http.port server in
    Printf.printf
      "schedsimd: %d computers, policy %s, %gx virtual time, backlog limit \
       %d\nschedsimd: listening on http://127.0.0.1:%d (POST /jobs, GET \
       /state, GET /metrics, PUT /policy, POST /drain)\n%!"
      (Array.length speeds)
      (Cluster.Scheduler.name scheduler)
      time_scale backlog_limit bound;
    let stop = Atomic.make false in
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    (* Park the main thread until SIGTERM/SIGINT or a client's
       POST /drain; the HTTP systhread does all the work. *)
    while not (Atomic.get stop || Cluster.Daemon.is_drained daemon) do
      Thread.delay 0.05
    done;
    Cluster.Daemon.drain daemon;
    Statsched_obs.Http.stop server;
    (match metrics_out with
    | Some path ->
      Cluster.Telemetry.write_metrics (Cluster.Daemon.telemetry daemon) path;
      Printf.printf "schedsimd: metrics -> %s\n" path
    | None -> ());
    (match journal_file with
    | Some path ->
      if Cluster.Daemon.write_journal daemon path then
        Printf.printf "schedsimd: journal -> %s\n" path
      else
        Printf.printf "schedsimd: no jobs measured, journal %s not written\n"
          path
    | None -> ());
    (match Cluster.Daemon.result daemon with
    | Some r ->
      let m = r.Cluster.Simulation.metrics in
      Printf.printf
        "schedsimd: drained at t=%.6g with %d jobs (mean response ratio \
         %.4f)\n"
        (Cluster.Daemon.virtual_now daemon)
        m.Core.Metrics.jobs m.Core.Metrics.mean_response_ratio
    | None -> Printf.printf "schedsimd: drained with no measured jobs\n");
    `Ok ()

let cmd =
  let doc = "serve the heterogeneous-cluster scheduler as a daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the statsched dispatch engine as a long-lived service: jobs \
         are submitted over HTTP, dispatched by the configured policy \
         against a virtual clock derived from wall time, and observable \
         live through the same /metrics and /state surfaces batch runs \
         export.  SIGTERM (or POST /drain) drains in-flight jobs, \
         finalizes the run and writes the journal before exit.";
      `S Manpage.s_examples;
      `Pre
        "  schedsimd -s 5x1.0,4x1.5,1x12 -p jsq-d --time-scale 1000 \\\\\n\
        \      --port 8080 --journal run.journal\n\
         \  curl -d 2.5 http://127.0.0.1:8080/jobs\n\
         \  curl -X PUT -d jiq http://127.0.0.1:8080/policy\n\
         \  curl -X POST http://127.0.0.1:8080/drain";
    ]
  in
  let term =
    Term.(
      ret
        (const run $ speeds_t $ rho_t $ policy_t $ port_t $ time_scale_t
       $ backlog_t $ seed_t $ horizon_t $ journal_t $ journal_capacity_t
       $ metrics_out_t))
  in
  Cmd.v (Cmd.info "schedsimd" ~version:"0.1.0" ~doc ~man) term

let () = exit (Cmd.eval cmd)
