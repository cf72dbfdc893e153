open Test_util
module Engine = Statsched_des.Engine
module Event_queue = Statsched_des.Event_queue
module Core = Statsched_core
module Cluster = Statsched_cluster
module Workload = Cluster.Workload
module Simulation = Cluster.Simulation
module Scheduler = Cluster.Scheduler
module Fault = Cluster.Fault
module Sanitize = Cluster.Sanitize

let violation_fires msg f =
  match f () with
  | exception Sanitize.Violation _ -> ()
  | _ -> Alcotest.fail (msg ^ ": expected Sanitize.Violation, none raised")

(* ------------------------------------------------------------------ *)
(* Each invariant checker actually fires                               *)

let clock_monotonicity_fires () =
  let s = Sanitize.create () in
  Sanitize.check_time s ~now:5.0;
  Sanitize.check_time s ~now:5.0;
  (* equal times are fine *)
  Sanitize.check_time s ~now:7.5;
  violation_fires "clock regression" (fun () -> Sanitize.check_time s ~now:3.0);
  violation_fires "NaN clock" (fun () -> Sanitize.check_time (Sanitize.create ()) ~now:nan)

let heap_order_fires () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:3.0 "c");
  ignore (Event_queue.add q ~time:1.0 "a");
  ignore (Event_queue.add q ~time:2.0 "b");
  Alcotest.(check bool) "fresh queue is heap-ordered" true (Event_queue.heap_ordered q);
  Event_queue.Testing.corrupt q;
  Alcotest.(check bool) "corrupted queue detected" false (Event_queue.heap_ordered q)

let engine_heap_check_fires () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 (fun _ -> ()));
  ignore (Engine.schedule e ~delay:2.0 (fun _ -> ()));
  ignore (Engine.schedule e ~delay:3.0 (fun _ -> ()));
  let s = Sanitize.create () in
  Sanitize.check_engine s e;
  (* healthy engine passes *)
  Engine.Testing.corrupt_heap e;
  violation_fires "corrupted engine heap" (fun () -> Sanitize.check_engine s e)

let engine_slot_check_fires () =
  (* Both halves of the root match hold an armed slot, so crowning the
     loser breaks the tree whatever the slots' order. *)
  let e = Engine.create () in
  let slots = Array.init 16 (fun _ -> Engine.slot e (fun _ -> ())) in
  Array.iteri (fun i s -> Engine.arm e s ~delay:(float_of_int (16 - i))) slots;
  let s = Sanitize.create () in
  Sanitize.check_engine s e;
  Engine.Testing.corrupt_slots e;
  Alcotest.(check bool) "audit sees the corrupted index" false (Engine.heap_ordered e);
  violation_fires "corrupted slot index" (fun () -> Sanitize.check_engine s e)

let job_conservation_fires () =
  let s = Sanitize.create () in
  Sanitize.on_arrival s;
  Sanitize.on_arrival s;
  Sanitize.on_arrival s;
  Sanitize.on_completion s;
  Sanitize.check_conservation s ~in_system:2;
  (* balanced *)
  violation_fires "leaked job" (fun () -> Sanitize.check_conservation s ~in_system:1);
  violation_fires "phantom job" (fun () -> Sanitize.check_conservation s ~in_system:3);
  violation_fires "negative in-system" (fun () ->
      Sanitize.check_conservation s ~in_system:(-1));
  (* a dropped job balances the books again *)
  Sanitize.on_drop s;
  Sanitize.check_conservation s ~in_system:1

let allocation_feasibility_fires () =
  let speeds = [| 1.0; 1.0 |] in
  Sanitize.check_allocation ~rho:0.7 ~speeds [| 0.5; 0.5 |];
  (* feasible *)
  Sanitize.check_allocation ~rho:0.7 ~speeds (Core.Allocation.optimized ~rho:0.7 speeds);
  violation_fires "saturated computer (alpha*lambda >= s)" (fun () ->
      (* lambda = 0.9 * 2 = 1.8; alpha_0*lambda = 1.62 >= 1 *)
      Sanitize.check_allocation ~rho:0.9 ~speeds [| 0.9; 0.1 |]);
  violation_fires "fractions not summing to 1" (fun () ->
      Sanitize.check_allocation ~rho:0.1 ~speeds [| 0.3; 0.3 |]);
  violation_fires "negative fraction" (fun () ->
      Sanitize.check_allocation ~rho:0.1 ~speeds [| 1.2; -0.2 |]);
  violation_fires "non-finite fraction" (fun () ->
      Sanitize.check_allocation ~rho:0.1 ~speeds [| nan; 1.0 |]);
  violation_fires "length mismatch" (fun () ->
      Sanitize.check_allocation ~rho:0.1 ~speeds [| 1.0 |]);
  (* ~saturation:false tolerates a deliberately overloaded computer
     (Figure 6's mis-estimation study) but still checks the vector. *)
  Sanitize.check_allocation ~saturation:false ~rho:0.9 ~speeds [| 0.9; 0.1 |];
  violation_fires "saturation off still checks sum" (fun () ->
      Sanitize.check_allocation ~saturation:false ~rho:0.9 ~speeds [| 0.9; 0.3 |])

let env_toggle () =
  (* The variable is not set under dune's test runner unless test/dune
     sets it; exercise the documented parsing via the typed API only. *)
  Alcotest.(check bool) "create starts balanced" true
    (match Sanitize.check_conservation (Sanitize.create ()) ~in_system:0 with
    | () -> true)

(* ------------------------------------------------------------------ *)
(* Sanitized runs are bit-identical to unsanitized runs                *)

let run_table3 ?faults ~sanitize ~scheduler () =
  let speeds = Core.Speeds.table3 in
  let workload = Workload.paper_default ~rho:0.7 ~speeds in
  let cfg =
    Simulation.default_config ?faults ~horizon:40_000.0 ~warmup:10_000.0 ~speeds
      ~workload ~scheduler ()
  in
  Simulation.run ~sanitize cfg

let sanitize_bit_identity () =
  List.iter
    (fun (name, faults, scheduler) ->
      let plain = run_table3 ?faults ~sanitize:false ~scheduler () in
      let sanitized = run_table3 ?faults ~sanitize:true ~scheduler () in
      check_float ~eps:0.0
        (name ^ ": mean response time bit-identical")
        plain.Simulation.metrics.Core.Metrics.mean_response_time
        sanitized.Simulation.metrics.Core.Metrics.mean_response_time;
      check_float ~eps:0.0
        (name ^ ": fairness bit-identical")
        plain.Simulation.metrics.Core.Metrics.fairness
        sanitized.Simulation.metrics.Core.Metrics.fairness;
      Alcotest.(check int)
        (name ^ ": same event count")
        plain.Simulation.events_executed sanitized.Simulation.events_executed;
      Alcotest.(check int)
        (name ^ ": same arrivals")
        plain.Simulation.total_arrivals sanitized.Simulation.total_arrivals;
      check_array ~eps:0.0
        (name ^ ": dispatch fractions bit-identical")
        plain.Simulation.dispatch_fractions sanitized.Simulation.dispatch_fractions;
      Alcotest.(check bool)
        (name ^ ": per-computer stats identical")
        true
        (plain.Simulation.per_computer = sanitized.Simulation.per_computer))
    [
      ("ORR", None, Scheduler.static Core.Policy.orr);
      ("WRR", None, Scheduler.static Core.Policy.wrr);
      ("LeastLoad", None, Scheduler.least_load_paper);
      ("AdaptiveORR", None, Scheduler.adaptive_orr ());
      ("SITA", None, Scheduler.sita_paper ());
      ( "ORR+drop-faults",
        Some (Fault.exponential ~on_failure:Fault.Drop ~mtbf:2000.0 ~mttr:50.0 ()),
        Scheduler.static Core.Policy.orr );
      ( "ORR+requeue-faults",
        Some (Fault.exponential ~on_failure:Fault.Requeue ~mtbf:2000.0 ~mttr:50.0 ()),
        Scheduler.static Core.Policy.orr );
      ( "LeastLoad+resume-faults",
        Some (Fault.exponential ~on_failure:Fault.Resume ~mtbf:2000.0 ~mttr:50.0 ()),
        Scheduler.least_load_paper );
    ]

(* A healthy fault-injected run satisfies conservation end to end for
   every discipline (drain/requeue/drop paths all exercised). *)
let sanitized_disciplines_pass () =
  List.iter
    (fun discipline ->
      let speeds = [| 1.0; 2.0; 4.0 |] in
      let workload = Workload.paper_default ~rho:0.6 ~speeds in
      let cfg =
        Simulation.default_config ~discipline
          ~faults:(Fault.exponential ~on_failure:Fault.Drop ~mtbf:3000.0 ~mttr:80.0 ())
          ~horizon:20_000.0 ~warmup:5_000.0 ~speeds ~workload
          ~scheduler:(Scheduler.static Core.Policy.orr) ()
      in
      ignore (Simulation.run ~sanitize:true cfg))
    [ Simulation.Ps; Simulation.Rr 0.5; Simulation.Fcfs; Simulation.Srpt ]

let suite =
  [
    test "sanitize: clock monotonicity fires" clock_monotonicity_fires;
    test "sanitize: event-queue heap audit fires" heap_order_fires;
    test "sanitize: engine heap check fires" engine_heap_check_fires;
    test "sanitize: engine slot-index check fires" engine_slot_check_fires;
    test "sanitize: job conservation fires" job_conservation_fires;
    test "sanitize: allocation feasibility fires" allocation_feasibility_fires;
    test "sanitize: fresh state is balanced" env_toggle;
    slow_test "sanitize: sanitized runs bit-identical" sanitize_bit_identity;
    slow_test "sanitize: all disciplines pass under faults" sanitized_disciplines_pass;
  ]
