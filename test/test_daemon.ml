open Test_util
module Core = Statsched_core
module Cluster = Statsched_cluster
module Simulation = Cluster.Simulation
module Driver = Simulation.Driver
module Daemon = Cluster.Daemon
module Scheduler = Cluster.Scheduler
module Http = Statsched_obs.Http

let scheduler name =
  match Scheduler.of_name name with
  | Ok k -> k
  | Error msg -> Alcotest.fail msg

let config ?(policy = "orr") ?(horizon = 2000.0) ?(warmup = 500.0)
    ?(seed = 11L) ?faults () =
  let speeds = [| 1.0; 1.5; 2.0; 12.0 |] in
  let rho = 0.6 in
  let workload = Cluster.Workload.paper_default ~rho ~speeds in
  Simulation.default_config ~horizon ~warmup ~seed ?faults ~speeds ~workload
    ~scheduler:(scheduler policy) ()

(* ------------------------------------------------------------------ *)
(* Driver ≡ run                                                        *)

let check_same_result what (a : Simulation.result) (b : Simulation.result) =
  let am = a.Simulation.metrics and bm = b.Simulation.metrics in
  Alcotest.(check int) (what ^ ": jobs") am.Core.Metrics.jobs bm.Core.Metrics.jobs;
  let exact label x y =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s %.17g vs %.17g" what label x y)
      true (Float.equal x y)
  in
  exact "mean response time" am.Core.Metrics.mean_response_time
    bm.Core.Metrics.mean_response_time;
  exact "mean response ratio" am.Core.Metrics.mean_response_ratio
    bm.Core.Metrics.mean_response_ratio;
  exact "fairness" am.Core.Metrics.fairness bm.Core.Metrics.fairness;
  exact "median ratio" a.Simulation.median_response_ratio
    b.Simulation.median_response_ratio;
  Array.iteri
    (fun i (pa : Simulation.per_computer) ->
      let pb = b.Simulation.per_computer.(i) in
      Alcotest.(check int)
        (Printf.sprintf "%s: dispatched[%d]" what i)
        pa.Simulation.dispatched pb.Simulation.dispatched;
      Alcotest.(check int)
        (Printf.sprintf "%s: completed[%d]" what i)
        pa.Simulation.completed pb.Simulation.completed;
      exact (Printf.sprintf "utilization[%d]" i) pa.Simulation.utilization
        pb.Simulation.utilization;
      exact (Printf.sprintf "mean jobs[%d]" i) pa.Simulation.mean_jobs
        pb.Simulation.mean_jobs)
    a.Simulation.per_computer

(* A one-shot [run] and a driver advanced in many small steps must be
   bit-identical: [Engine.run ~until] partitions the same event sequence
   whatever the step boundaries. *)
let driver_matches_run () =
  List.iter
    (fun policy ->
      let cfg = config ~policy () in
      let batch = Simulation.run cfg in
      let d = Driver.create cfg in
      Alcotest.(check (float 0.0)) "driver starts at time 0" 0.0 (Driver.now d);
      Alcotest.(check int) "no arrivals yet" 0 (Driver.arrivals d);
      let horizon = cfg.Simulation.horizon in
      let chunks = 13 in
      for k = 1 to chunks do
        Driver.advance d ~to_:(horizon *. float_of_int k /. float_of_int chunks)
      done;
      Driver.advance d ~to_:horizon;
      (* Monotone: stepping backwards is a no-op, not an error. *)
      Driver.advance d ~to_:(horizon /. 2.0);
      Alcotest.(check (float 0.0)) "clock pinned at horizon" horizon (Driver.now d);
      let stepped = Driver.finalize d in
      check_same_result (policy ^ " chunked") batch stepped)
    [ "orr"; "jsq-d"; "jiq" ]

(* Replaying a batch run's recorded arrival trace through an [`External]
   driver — the daemon's mode — reproduces every dispatch decision and
   the whole result bit-for-bit. *)
let external_replay_matches_batch () =
  let cfg = config ~policy:"jsq-d" () in
  let trace = ref [] in
  let batch =
    Simulation.run ~hooks_retain_jobs:false
      ~on_dispatch:(fun j ->
        trace :=
          ( j.Statsched_queueing.Job.arrival,
            j.Statsched_queueing.Job.size,
            j.Statsched_queueing.Job.computer )
          :: !trace)
      cfg
  in
  let d = Driver.create ~arrivals:`External cfg in
  let mismatches = ref 0 in
  List.iter
    (fun (t, size, computer) ->
      Driver.advance d ~to_:t;
      if Driver.submit d ~size <> computer then incr mismatches)
    (List.rev !trace);
  Alcotest.(check int) "every replayed dispatch decision identical" 0 !mismatches;
  Driver.advance d ~to_:cfg.Simulation.horizon;
  let replayed = Driver.finalize d in
  check_same_result "external replay" batch replayed

let driver_lifecycle_errors () =
  let cfg = config ~warmup:0.0 () in
  let d = Driver.create ~arrivals:`External cfg in
  Alcotest.check_raises "NaN advance rejected"
    (Invalid_argument "Simulation.Driver.advance: NaN time") (fun () ->
      Driver.advance d ~to_:Float.nan);
  Alcotest.check_raises "non-positive size rejected"
    (Invalid_argument "Simulation.Driver.submit: size <= 0") (fun () ->
      ignore (Driver.submit d ~size:0.0));
  ignore (Driver.submit d ~size:1.0);
  Alcotest.(check int) "one job in system" 1 (Driver.in_system d);
  Driver.drain d;
  Alcotest.(check int) "drained empty" 0 (Driver.in_system d);
  Alcotest.(check bool) "drain moved the clock" true (Driver.now d > 0.0);
  ignore (Driver.finalize d);
  Alcotest.check_raises "dead after finalize: advance"
    (Invalid_argument "Simulation.Driver.advance: already finalized") (fun () ->
      Driver.advance d ~to_:1.0);
  Alcotest.check_raises "dead after finalize: submit"
    (Invalid_argument "Simulation.Driver.submit: already finalized") (fun () ->
      ignore (Driver.submit d ~size:1.0))

(* ------------------------------------------------------------------ *)
(* Daemon endpoints (no sockets: handle_request + injected clock)      *)

let req ?(body = "") meth path = { Http.meth; path; body }

let daemon_endpoints () =
  let now = ref 0.0 in
  let cfg = config ~policy:"jsq-d" ~warmup:0.0 ~horizon:1.0e9 () in
  let daemon =
    Daemon.create ~clock:(fun () -> !now) ~backlog_limit:3 cfg
  in
  let h r = Daemon.handle_request daemon r in
  let status r = r.Http.status in
  (* Liveness, metrics, state. *)
  let r = h (req "GET" "/healthz") in
  Alcotest.(check int) "healthz 200" 200 (status r);
  Alcotest.(check string) "healthz body" "ok\n" r.Http.body;
  let r = h (req "GET" "/metrics") in
  Alcotest.(check int) "metrics 200" 200 (status r);
  Alcotest.(check string) "prometheus content type"
    "text/plain; version=0.0.4; charset=utf-8" r.Http.content_type;
  Alcotest.(check bool) "metrics exposition non-empty" true
    (String.length r.Http.body > 0);
  let r = h (req "GET" "/state") in
  Alcotest.(check int) "state 200" 200 (status r);
  Alcotest.(check bool) "state is a JSON object" true (r.Http.body.[0] = '{');
  (* Policy read and hot swap. *)
  let r = h (req "GET" "/policy") in
  Alcotest.(check string) "initial policy"
    (Scheduler.name (scheduler "jsq-d") ^ "\n")
    r.Http.body;
  let r = h (req ~body:"bogus" "PUT" "/policy") in
  Alcotest.(check int) "unknown policy 400" 400 (status r);
  let r = h (req ~body:"jsq-d:0" "PUT" "/policy") in
  Alcotest.(check int) "bad probe count 400" 400 (status r);
  let r = h (req ~body:"jiq" "PUT" "/policy") in
  Alcotest.(check int) "policy swap 200" 200 (status r);
  Alcotest.(check string) "swap reports new policy"
    (Scheduler.name (scheduler "jiq") ^ "\n")
    r.Http.body;
  (* Routing errors. *)
  Alcotest.(check int) "unknown path 404" 404 (status (h (req "GET" "/nope")));
  Alcotest.(check int) "wrong method 405" 405 (status (h (req "GET" "/jobs")));
  Alcotest.(check int) "wrong method on state 405" 405
    (status (h (req "POST" "/state")));
  (* Admission: parse errors, then the backlog limit. *)
  Alcotest.(check int) "garbage body 400" 400
    (status (h (req ~body:"three" "POST" "/jobs")));
  Alcotest.(check int) "negative size 400" 400
    (status (h (req ~body:"-2" "POST" "/jobs")));
  Alcotest.(check int) "empty body 400" 400 (status (h (req "POST" "/jobs")));
  let r = h (req ~body:" 2.5 \n" "POST" "/jobs") in
  Alcotest.(check int) "first job accepted 202" 202 (status r);
  Alcotest.(check bool) "submit response carries the id" true
    (String.length r.Http.body >= 8 && String.sub r.Http.body 0 8 = "{\"id\":1,");
  Alcotest.(check int) "second job accepted" 202
    (status (h (req ~body:"1.0" "POST" "/jobs")));
  Alcotest.(check int) "third job accepted" 202
    (status (h (req ~body:"1.0" "POST" "/jobs")));
  Alcotest.(check int) "backlog full 429" 429
    (status (h (req ~body:"1.0" "POST" "/jobs")));
  Alcotest.(check int) "three jobs in system" 3 (Daemon.backlog daemon);
  (* Virtual time passes; the backlog drains and admission reopens. *)
  now := 1.0e4;
  Alcotest.(check int) "state read advances the clock" 200
    (status (h (req "GET" "/state")));
  Alcotest.(check int) "backlog drained by virtual time" 0
    (Daemon.backlog daemon);
  Alcotest.(check int) "admission reopens" 202
    (status (h (req ~body:"0.5" "POST" "/jobs")));
  (* Drain: idempotent, then everything mutating is refused. *)
  now := 2.0e4;
  let r = h (req "POST" "/drain") in
  Alcotest.(check int) "drain 200" 200 (status r);
  Alcotest.(check bool) "drain response says drained" true
    (String.length r.Http.body >= 16
    && String.sub r.Http.body 0 16 = "{\"drained\":true,");
  Alcotest.(check bool) "daemon is drained" true (Daemon.is_drained daemon);
  Alcotest.(check int) "drain idempotent" 200 (status (h (req "POST" "/drain")));
  Alcotest.(check int) "submit after drain 503" 503
    (status (h (req ~body:"1.0" "POST" "/jobs")));
  Alcotest.(check int) "swap after drain 503" 503
    (status (h (req ~body:"orr" "PUT" "/policy")));
  (match Daemon.result daemon with
  | None -> Alcotest.fail "drained daemon has no result"
  | Some r ->
    Alcotest.(check int) "all four accepted jobs measured" 4
      r.Simulation.metrics.Core.Metrics.jobs);
  (* With a finalized outcome write_journal reports success (the write
     itself is a no-op here — no journal was configured). *)
  let tmp = Filename.temp_file "schedsimd" ".journal" in
  Alcotest.(check bool) "write_journal after drain" true
    (Daemon.write_journal daemon tmp);
  Sys.remove tmp

let daemon_validation () =
  Alcotest.check_raises "time_scale <= 0"
    (Invalid_argument "Daemon.create: time_scale <= 0") (fun () ->
      ignore (Daemon.create ~time_scale:0.0 (config ())));
  Alcotest.check_raises "backlog_limit < 1"
    (Invalid_argument "Daemon.create: backlog_limit < 1") (fun () ->
      ignore (Daemon.create ~backlog_limit:0 (config ())));
  let d = Daemon.create ~clock:(fun () -> 0.0) (config ()) in
  Alcotest.(check bool) "no journal before drain" false
    (Daemon.write_journal d "/nonexistent/never-touched");
  (match Scheduler.of_name "jsq-d:4" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  (match Scheduler.of_name "jsq-d:x" with
  | Ok _ -> Alcotest.fail "bad probe suffix accepted"
  | Error _ -> ());
  match Scheduler.of_name "fifo" with
  | Ok _ -> Alcotest.fail "unknown policy accepted"
  | Error msg ->
    Alcotest.(check bool) "error lists the vocabulary" true
      (String.length msg > 0)

(* Every name of the shared vocabulary hot-swaps over PUT /policy and
   reads back over GET /policy as the policy that name denotes. *)
let daemon_policy_vocabulary () =
  let daemon =
    Daemon.create ~clock:(fun () -> 0.0) (config ~warmup:0.0 ~horizon:1.0e9 ())
  in
  List.iter
    (fun name ->
      let r = Daemon.handle_request daemon (req ~body:name "PUT" "/policy") in
      Alcotest.(check int) ("PUT " ^ name) 200 r.Http.status;
      Alcotest.(check string) ("GET after PUT " ^ name)
        (Scheduler.name (scheduler name) ^ "\n")
        (Daemon.handle_request daemon (req "GET" "/policy")).Http.body)
    Scheduler.names

(* A swap stops the outgoing policy's periodic refresh: however many
   times the driver alternates between two periodic policies, the
   engine holds exactly the events it held after the first swap. *)
let swap_leaves_no_periodic_events () =
  let engine = ref None in
  let d =
    Driver.create ~on_engine:(fun e -> engine := Some e) ~arrivals:`External
      (config ())
  in
  let pending () =
    match !engine with
    | Some e -> Statsched_des.Engine.pending_events e
    | None -> Alcotest.fail "on_engine not called"
  in
  let stale = Scheduler.stale_least_load ~poll_period:10.0 () in
  let adaptive = Scheduler.adaptive_orr () in
  Driver.set_scheduler d stale;
  let after_one = pending () in
  for k = 1 to 8 do
    Driver.advance d ~to_:(25.0 *. float_of_int k);
    Driver.set_scheduler d adaptive;
    Driver.set_scheduler d stale
  done;
  Alcotest.(check int) "pending events after repeated swaps" after_one
    (pending ());
  Driver.set_scheduler d adaptive;
  Alcotest.(check int) "and after ending on the other policy" after_one
    (pending ())

(* Sum of every sample of one metric family in a Prometheus exposition. *)
let metric_total exposition family =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ name; value ]
        when name = family
             || String.length name > String.length family
                && String.sub name 0 (String.length family + 1) = family ^ "{" ->
        acc +. float_of_string value
      | _ -> acc)
    0.0
    (String.split_on_char '\n' exposition)

(* The daemon wires the fault hooks into its telemetry: a crash plan that
   drops in-flight jobs shows up in the exported counters. *)
let daemon_fault_hooks () =
  let faults =
    Cluster.Fault.plan ~on_failure:Cluster.Fault.Drop
      [ Cluster.Fault.crashes ~mtbf:200.0 ~mttr:20.0 () ]
  in
  let now = ref 0.0 in
  let daemon =
    Daemon.create ~clock:(fun () -> !now) ~backlog_limit:10_000
      (config ~warmup:0.0 ~horizon:1.0e9 ~faults ())
  in
  for i = 1 to 400 do
    now := float_of_int i;
    ignore (Daemon.handle_request daemon (req ~body:"50" "POST" "/jobs"))
  done;
  now := 2000.0;
  ignore (Daemon.handle_request daemon (req "POST" "/drain"));
  Alcotest.(check bool) "drained" true (Daemon.is_drained daemon);
  let body = (Daemon.handle_request daemon (req "GET" "/metrics")).Http.body in
  let positive family =
    let v = metric_total body family in
    Alcotest.(check bool) (Printf.sprintf "%s = %g > 0" family v) true (v > 0.0)
  in
  positive "statsched_fault_rate_changes_total";
  positive "statsched_jobs_dropped_total"

(* ------------------------------------------------------------------ *)
(* The daemon dispatch path stays allocation-free                      *)

(* Steady-state [Driver.submit] must not churn the heap per job: jobs
   live in the run's job store, the engine's event queue reuses its
   buffers, and the JSQ(d) decision path is integer-only.  What remains
   is the boxing of the two floats this loop passes ([advance ~to_] and
   [submit ~size]): 4 words per job, measured.  The bound of 6 leaves
   less than one extra word pair, so a per-job record, closure or list
   cell on the dispatch path (3 words or more each) fails it. *)
let daemon_submit_zero_alloc () =
  let cfg = config ~policy:"jsq-d" ~warmup:0.0 ~horizon:1.0e12 () in
  (* The suite runs sanitized; the invariant checkers allocate per
     event by design, so this measurement turns them off (bit-identity
     of sanitized runs is pinned separately in test_sanitize.ml). *)
  let d = Driver.create ~sanitize:false ~arrivals:`External cfg in
  let jobs = 1000 in
  let t = [| 0.0 |] in
  let cycle () =
    for _ = 1 to jobs do
      t.(0) <- t.(0) +. 0.25;
      Driver.advance d ~to_:t.(0);
      ignore (Driver.submit d ~size:1.0)
    done
  in
  (* Warm the job store, event queue and per-policy scratch. *)
  cycle ();
  cycle ();
  let before = Gc.minor_words () in
  cycle ();
  let delta = Gc.minor_words () -. before in
  let per_job = delta /. float_of_int jobs in
  Alcotest.(check bool)
    (Printf.sprintf "daemon dispatch allocated %.0f minor words over %d jobs \
                     (%.2f/job)" delta jobs per_job)
    true (per_job <= 6.0);
  Driver.drain d;
  ignore (Driver.finalize d)

let suite =
  [
    test "driver: chunked advance bit-identical to one-shot run"
      driver_matches_run;
    test "driver: external replay reproduces batch decisions"
      external_replay_matches_batch;
    test "driver: lifecycle validation and post-finalize death"
      driver_lifecycle_errors;
    test "daemon: every endpoint and error path" daemon_endpoints;
    test "daemon: constructor and policy-name validation" daemon_validation;
    test "daemon: every policy name round-trips through /policy"
      daemon_policy_vocabulary;
    test "driver: policy swaps leave no periodic events behind"
      swap_leaves_no_periodic_events;
    test "daemon: fault hooks reach the telemetry" daemon_fault_hooks;
    test "daemon: dispatch path allocation bound" daemon_submit_zero_alloc;
  ]
