open Test_util
module Q = Statsched_queueing
module Theory = Q.Theory
module Core = Statsched_core
module Cluster = Statsched_cluster
module E = Statsched_experiments
module Rng = Statsched_prng.Rng
module Engine = Statsched_des.Engine
module Job = Q.Job

(* ------------------------------------------------------------------ *)
(* Queueing theory closed forms                                        *)

let theory_mm1_consistency () =
  (* For exponential sizes (scv = 1), P-K reduces to M/M/1-FCFS. *)
  let lambda = 0.6 and mean_size = 1.0 and speed = 1.0 in
  check_float ~eps:1e-12 "P-K at scv=1 equals M/M/1"
    (Theory.mm1_fcfs_response ~lambda ~mean_size ~speed)
    (Theory.mg1_fcfs_response ~lambda ~mean_size ~scv:1.0 ~speed)

let theory_ps_equals_mm1 () =
  (* PS mean response time = M/M/1 mean response time at the same load. *)
  let lambda = 0.4 and mean_size = 2.0 and speed = 2.0 in
  check_float ~eps:1e-12 "PS = M/M/1 mean"
    (Theory.mm1_fcfs_response ~lambda ~mean_size ~speed)
    (Theory.mg1_ps_response ~lambda ~mean_size ~speed)

let theory_saturation () =
  check_float "saturated fcfs" infinity
    (Theory.mm1_fcfs_response ~lambda:2.0 ~mean_size:1.0 ~speed:1.0);
  check_float "saturated ps" infinity
    (Theory.mg1_ps_response ~lambda:2.0 ~mean_size:1.0 ~speed:1.0)

let theory_variability_penalty () =
  (* FCFS response grows with scv; PS does not. *)
  let lambda = 0.5 and mean_size = 1.0 and speed = 1.0 in
  let fcfs scv = Theory.mg1_fcfs_response ~lambda ~mean_size ~scv ~speed in
  Alcotest.(check bool) "scv penalty" true (fcfs 10.0 > fcfs 1.0);
  check_float ~eps:1e-12 "known P-K value: 1 + 0.5*1*2/(2*0.5)" 2.0 (fcfs 1.0)

let theory_vs_fcfs_simulation () =
  (* Validate the FCFS server against Pollaczek-Khinchine with Erlang-2
     sizes (scv = 0.5). *)
  let engine = Engine.create () in
  let g = rng ~seed:4242L () in
  let size_dist = Statsched_dist.Erlang.create ~k:2 ~rate:2.0 in
  let mean_size = 1.0 in
  let lambda = 0.6 in
  let w = Statsched_stats.Welford.create () in
  let horizon = 200_000.0 in
  let warmup = horizon /. 5.0 in
  let store = Q.Job_store.create () in
  let server =
    Q.Serial_server.create ~engine ~speed:1.0 ~order:Q.Serial_server.Fcfs ~store
      ~on_departure:(fun slot ->
        let j = job_of_slot store slot in
        Q.Job_store.release store slot;
        if j.Job.arrival >= warmup then
          Statsched_stats.Welford.add w (Job.response_time j))
      ()
  in
  let id = ref 0 in
  let rec arrive () =
    ignore
      (Engine.schedule engine
         ~delay:(Statsched_dist.Exponential.sample ~rate:lambda g)
         (fun e ->
           incr id;
           let size = Statsched_dist.Distribution.sample size_dist g in
           server.Q.Server_intf.submit (Q.Job_store.add store ~id:!id ~size ~arrival:(Engine.now e));
           arrive ()))
  in
  arrive ();
  Engine.run ~until:horizon engine;
  let expected = Theory.mg1_fcfs_response ~lambda ~mean_size ~scv:0.5 ~speed:1.0 in
  check_close ~rel:0.05 "P-K matches FCFS simulation" expected
    (Statsched_stats.Welford.mean w)

let theory_slowdown () =
  (* speed 1, rho 0.6 -> slowdown 1/(1-0.6) = 2.5 *)
  check_float ~eps:1e-9 "PS slowdown" 2.5
    (Theory.mg1_ps_mean_slowdown ~lambda:0.6 ~mean_size:1.0 ~speed:1.0);
  (* doubling the speed halves both load and slowdown denominator terms *)
  check_float ~eps:1e-9 "PS slowdown at speed 2" (1.0 /. (2.0 *. 0.7))
    (Theory.mg1_ps_mean_slowdown ~lambda:0.6 ~mean_size:1.0 ~speed:2.0)

let theory_number_in_system () =
  check_float ~eps:1e-12 "L = rho/(1-rho)" (0.7 /. 0.3)
    (Theory.mm1_number_in_system ~lambda:0.7 ~mean_size:1.0 ~speed:1.0)

(* ------------------------------------------------------------------ *)
(* Golden ratio dispatcher                                             *)

let gr_longrun_fractions () =
  let alpha = [| 0.5; 0.3; 0.2 |] in
  let d = Core.Dispatch.golden_ratio alpha in
  let n = 100_000 in
  let c = Array.make 3 0 in
  for _ = 1 to n do
    let i = Core.Dispatch.select d in
    c.(i) <- c.(i) + 1
  done;
  Array.iteri
    (fun i count ->
      check_close ~rel:0.01
        (Printf.sprintf "golden ratio share %d" i)
        alpha.(i)
        (float_of_int count /. float_of_int n))
    c

let gr_deterministic_and_resettable () =
  let alpha = [| 0.6; 0.4 |] in
  let d = Core.Dispatch.golden_ratio alpha in
  let first = List.init 50 (fun _ -> Core.Dispatch.select d) in
  Core.Dispatch.reset d;
  let second = List.init 50 (fun _ -> Core.Dispatch.select d) in
  Alcotest.(check (list int)) "reset replays" first second

let gr_smoother_than_random () =
  let alpha = E.Fig2.fractions in
  let discrepancy d =
    let n = 20_000 in
    let c = Array.make (Array.length alpha) 0 in
    let worst = ref 0.0 in
    for t = 1 to n do
      let i = Core.Dispatch.select d in
      c.(i) <- c.(i) + 1;
      Array.iteri
        (fun j a ->
          let dev = abs_float (float_of_int c.(j) -. (float_of_int t *. a)) in
          if dev > !worst then worst := dev)
        alpha
    done;
    !worst
  in
  let gr = discrepancy (Core.Dispatch.golden_ratio alpha) in
  let rand = discrepancy (Core.Dispatch.random ~rng:(rng ()) alpha) in
  let rr = discrepancy (Core.Dispatch.round_robin alpha) in
  Alcotest.(check bool)
    (Printf.sprintf "rr %.1f <= gr %.1f < random %.1f" rr gr rand)
    true
    (gr < rand && rr <= gr +. 1.0)

(* ------------------------------------------------------------------ *)
(* Jain index                                                          *)

(* Jain's fairness index (sum x)^2 / (n * sum x^2): 1 when every
   element is equal, 1/n when one element carries everything. *)
let jain_index xs =
  let sum = Array.fold_left ( +. ) 0.0 xs in
  let sumsq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  sum *. sum /. (float_of_int (Array.length xs) *. sumsq)

let jain_optimized_less_balanced () =
  (* The optimized allocation deliberately unbalances utilisations:
     its Jain index of per-computer utilisation is below weighted's 1. *)
  let speeds = Core.Speeds.table3 in
  let rho = 0.5 in
  let lambda = rho *. Core.Speeds.total speeds in
  let utils alloc =
    Array.mapi (fun i a -> a *. lambda /. speeds.(i)) alloc
  in
  let j_weighted = jain_index (utils (Core.Allocation.weighted speeds)) in
  let j_opt = jain_index (utils (Core.Allocation.optimized ~rho speeds)) in
  check_float ~eps:1e-9 "weighted perfectly balanced" 1.0 j_weighted;
  Alcotest.(check bool) "optimized unbalances" true (j_opt < 0.95)

(* ------------------------------------------------------------------ *)
(* Trace: a stride-1 journal is the run's complete record              *)

module Journal = Statsched_obs.Journal

let trace_records_roundtrip () =
  let speeds = [| 1.0; 2.0 |] in
  let workload = Cluster.Workload.poisson_exponential ~rho:0.5 ~mean_size:1.0 ~speeds in
  let cfg =
    Cluster.Simulation.default_config ~horizon:5_000.0 ~speeds ~workload
      ~scheduler:(Cluster.Scheduler.static Core.Policy.wrr) ()
  in
  let journal = Journal.create ~capacity:(1 lsl 16) () in
  let t = Cluster.Telemetry.create ~journal cfg in
  let r =
    Cluster.Simulation.run
      ~on_dispatch:(Cluster.Telemetry.on_dispatch t)
      ~on_completion:(Cluster.Telemetry.on_completion t)
      cfg
  in
  Alcotest.(check int) "nothing sampled away" 1 (Journal.stride journal);
  let dispatched = Hashtbl.create 4096 in
  let last_dispatch = ref neg_infinity in
  let completions = ref 0 in
  Journal.iter journal (function
    | Journal.Dispatch_r { id; time; size; _ } ->
      if time < !last_dispatch then Alcotest.fail "dispatch trace out of order";
      last_dispatch := time;
      Hashtbl.replace dispatched id size
    | Journal.Completion_r { id; size; _ } ->
      incr completions;
      (* The replayable size is the one the job was dispatched with. *)
      (match Hashtbl.find_opt dispatched id with
      | Some s -> check_float ~eps:0.0 "completed size is the dispatched size" s size
      | None -> Alcotest.fail "completion without a dispatch");
      Alcotest.(check bool) "positive size" true (size > 0.0)
    | Journal.Queue_r _ | Journal.Drop_r _ | Journal.Rate_r _ -> ());
  Alcotest.(check int) "every arrival traced" r.Cluster.Simulation.total_arrivals
    (Hashtbl.length dispatched);
  Alcotest.(check bool) "completions traced" true (!completions > 0);
  Alcotest.(check bool) "completions <= dispatches" true
    (!completions <= Hashtbl.length dispatched)

let trace_csv_output () =
  let j = Journal.create () in
  Journal.record_dispatch j ~id:1 ~computer:0 ~time:1.0 ~size:2.0;
  Journal.record_completion j ~id:1 ~computer:0 ~arrival:1.0 ~start:1.0
    ~completion:3.0 ~size:2.0;
  match Tracestat_core.Journal_file.parse (Journal.to_string j) with
  | Error _ -> Alcotest.fail "journal must parse"
  | Ok jf ->
    let lines =
      List.filter
        (fun l -> l <> "")
        (String.split_on_char '\n' (Tracestat_core.Export.csv jf))
    in
    Alcotest.(check int) "header + 2 records" 3 (List.length lines);
    Alcotest.(check string) "header"
      "kind,time,job_id,computer,size,response_time,response_ratio"
      (List.hd lines)

(* ------------------------------------------------------------------ *)
(* Scale-sweep CSV                                                     *)

(* RFC 4180 fields of one line: commas split, except inside double
   quotes, where a doubled quote stands for one quote. *)
let csv_fields line =
  let fields = ref [] and cur = Buffer.create 16 and quoted = ref false in
  let n = String.length line in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if !quoted then
      if c = '"' && !i + 1 < n && line.[!i + 1] = '"' then begin
        Buffer.add_char cur '"';
        incr i
      end
      else if c = '"' then quoted := false
      else Buffer.add_char cur c
    else if c = '"' then quoted := true
    else if c = ',' then begin
      fields := Buffer.contents cur :: !fields;
      Buffer.clear cur
    end
    else Buffer.add_char cur c;
    incr i
  done;
  List.rev (Buffer.contents cur :: !fields)

let scale_sweep_csv_parses () =
  let t = E.Ext_scale.run ~jobs:1 ~ns:[ 20 ] ~jobs_target:2_000.0 () in
  let lines = String.split_on_char '\n' (String.trim (E.Ext_scale.to_csv t)) in
  let header, rows =
    match List.map csv_fields lines with
    | h :: rs -> (h, rs)
    | [] -> Alcotest.fail "empty CSV"
  in
  Alcotest.(check int) "one row per cell" (List.length t.E.Ext_scale.cells)
    (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int)
        (Printf.sprintf "fields of %s" (String.concat "|" row))
        (List.length header) (List.length row))
    rows;
  let column name =
    let rec find i = function
      | h :: _ when h = name -> i
      | _ :: rest -> find (i + 1) rest
      | [] -> Alcotest.failf "no column %s" name
    in
    let i = find 0 header in
    List.map (fun row -> List.nth row i) rows
  in
  Alcotest.(check (list string)) "policy cells"
    [ "ORR"; "LeastLoad"; "JSQ(d=2)"; "JSQ(d=2,uniform)"; "JIQ" ]
    (column "policy");
  Alcotest.(check (list string)) "heap high-water cells"
    (List.map
       (fun c -> string_of_int c.E.Ext_scale.heap_high_water)
       t.E.Ext_scale.cells)
    (column "heap_high_water")

let suite =
  [
    test "theory: P-K reduces to M/M/1 at scv=1" theory_mm1_consistency;
    test "theory: PS equals M/M/1 mean" theory_ps_equals_mm1;
    test "theory: saturation" theory_saturation;
    test "theory: variability penalises FCFS only" theory_variability_penalty;
    slow_test "theory: P-K matches FCFS simulation" theory_vs_fcfs_simulation;
    test "theory: PS mean slowdown" theory_slowdown;
    test "theory: number in system" theory_number_in_system;
    test "golden ratio: long-run fractions" gr_longrun_fractions;
    test "golden ratio: deterministic + reset" gr_deterministic_and_resettable;
    test "golden ratio: between round-robin and random" gr_smoother_than_random;
    test "jain index: optimized allocation unbalances" jain_optimized_less_balanced;
    test "trace: records round-trip from simulation" trace_records_roundtrip;
    test "trace: CSV output" trace_csv_output;
    test "scale sweep: CSV fields match the header" scale_sweep_csv_parses;
  ]
