(* Tests of the benchmark's own helpers. *)

open Perfbench_lib

let seq n = Array.init n (fun i -> float_of_int (i + 1))

let tail_rule () =
  let t = Pstats.tail (seq 1000) in
  Alcotest.(check string) "p99 with 10 beyond" "p99" t.Pstats.label;
  Alcotest.(check (float 0.0)) "nearest rank" 990.0 t.Pstats.value;
  Alcotest.(check int) "n reported" 1000 t.Pstats.n;
  let t = Pstats.tail (seq 999) in
  Alcotest.(check string) "p99 needs 1000 samples" "p90" t.Pstats.label;
  let t = Pstats.tail (seq 100) in
  Alcotest.(check string) "p90 at 100" "p90" t.Pstats.label;
  Alcotest.(check (float 0.0)) "p90 value" 90.0 t.Pstats.value;
  let t = Pstats.tail (seq 20) in
  Alcotest.(check string) "p50 at 20" "p50" t.Pstats.label;
  let t = Pstats.tail [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check string) "max below 20" "max" t.Pstats.label;
  Alcotest.(check (float 0.0)) "max value" 3.0 t.Pstats.value;
  Alcotest.(check int) "max n" 3 t.Pstats.n

let percentiles () =
  Alcotest.(check (float 0.0)) "median odd" 2.0 (Pstats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "median even" 2.5 (Pstats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "p100 is max" 10.0 (Pstats.percentile (seq 10) 100.0);
  Alcotest.(check (float 0.0)) "p0 is min" 1.0 (Pstats.percentile (seq 10) 0.0)

let steps = [ { Schedule.rate = 100.0; seconds = 2.0 }; { Schedule.rate = 400.0; seconds = 1.0 } ]

let same_seed_same_schedule () =
  let a = Schedule.posts ~seed:7 steps and b = Schedule.posts ~seed:7 steps in
  Alcotest.(check (array (float 0.0))) "due" a.Schedule.due b.Schedule.due;
  Alcotest.(check (array (float 0.0))) "size" a.Schedule.size b.Schedule.size;
  Alcotest.(check (array int)) "step" a.Schedule.step b.Schedule.step;
  let c = Schedule.posts ~seed:8 steps in
  Alcotest.(check bool) "another seed differs" false (a.Schedule.due = c.Schedule.due)

let schedule_shape () =
  let s = Schedule.posts ~seed:1 steps in
  let n = Array.length s.Schedule.due in
  for i = 1 to n - 1 do
    Alcotest.(check bool) "due increases" true (s.Schedule.due.(i) > s.Schedule.due.(i - 1))
  done;
  Array.iteri
    (fun i d ->
      let k = s.Schedule.step.(i) in
      let lo = s.Schedule.step_start.(k) in
      Alcotest.(check bool) "inside its step" true
        (d >= lo && d < lo +. (List.nth steps k).Schedule.seconds))
    s.Schedule.due;
  Alcotest.(check (float 1e-12)) "duration" 3.0 (Schedule.duration s);
  (* Poisson counts near rate x seconds: 200 and 400 *)
  let count k = Array.fold_left (fun a x -> if x = k then a + 1 else a) 0 s.Schedule.step in
  Alcotest.(check bool) "step 0 count" true (abs (count 0 - 200) < 60);
  Alcotest.(check bool) "step 1 count" true (abs (count 1 - 400) < 80);
  Array.iter (fun x -> Alcotest.(check bool) "bounded pareto size" true (x >= 10.0 && x <= 21600.0))
    s.Schedule.size

let closed_sizes () =
  let draw g = Array.init 50 (fun _ -> g ()) in
  let a = draw (Schedule.sizes ~seed:7 ~stream:0 ~scale:0.5) in
  Alcotest.(check (array (float 0.0))) "same seed and stream"
    a (draw (Schedule.sizes ~seed:7 ~stream:0 ~scale:0.5));
  Alcotest.(check bool) "streams differ" false (a = draw (Schedule.sizes ~seed:7 ~stream:1 ~scale:0.5));
  Alcotest.(check (array (float 1e-9))) "scale multiplies"
    (Array.map (fun x -> 2.0 *. x) a) (draw (Schedule.sizes ~seed:7 ~stream:0 ~scale:1.0));
  let open_loop = Schedule.posts ~seed:7 steps in
  Alcotest.(check bool) "not the open-loop sizes" false
    (Array.sub (draw (Schedule.sizes ~seed:7 ~stream:0 ~scale:1.0)) 0 10 = Array.sub open_loop.Schedule.size 0 10)

let periodic () =
  Alcotest.(check (array (float 1e-12))) "half-period offset" [| 0.5; 1.5; 2.5 |]
    (Schedule.periodic ~period:1.0 ~until:3.0);
  Alcotest.(check (array (float 1e-12))) "strictly before until" [| 0.5; 1.5 |]
    (Schedule.periodic ~period:1.0 ~until:2.5);
  Alcotest.(check (array (float 1e-12))) "none" [||] (Schedule.periodic ~period:1.0 ~until:0.5)

let glue () =
  let l = { Ledger.end_to_end = 1000.0; layers = [ ("a", 300.0); ("b", 200.0); ("c", 150.0) ] } in
  Alcotest.(check (float 1e-9)) "residual" 350.0 (Ledger.glue l);
  Alcotest.(check (float 1e-9)) "layer sum" 650.0 (Ledger.layer_sum l);
  let over = { l with Ledger.end_to_end = 500.0 } in
  Alcotest.(check (float 1e-9)) "negative residual is kept" (-150.0) (Ledger.glue over)

(* A served stream's ledger leaves out [dist] and counts the telemetry
   hooks; a batch run's does the opposite. *)
let ledger_composition () =
  let cost = function
    | "dist" -> 1.0
    | "des" -> 10.0
    | "queueing" -> 100.0
    | "core" -> 1000.0
    | "cluster.collector" -> 10000.0
    | "cluster.telemetry" -> 100000.0
    | l -> Alcotest.failf "no such layer %s" l
  in
  let served = Ledger.make Ledger.Served ~end_to_end:1e6 ~cost in
  Alcotest.(check (list string)) "served layers"
    [ "des"; "queueing"; "core"; "cluster.collector"; "cluster.telemetry" ]
    (List.map fst served.Ledger.layers);
  Alcotest.(check (float 1e-9)) "served glue" (1e6 -. 111110.0) (Ledger.glue served);
  let batch = Ledger.make Ledger.Batch ~end_to_end:1e6 ~cost in
  Alcotest.(check (list string)) "batch layers"
    [ "dist"; "des"; "queueing"; "core"; "cluster.collector" ]
    (List.map fst batch.Ledger.layers);
  Alcotest.(check (float 1e-9)) "batch glue" (1e6 -. 11111.0) (Ledger.glue batch)

(* Two jobs on one server: job 0 in [1, 3), job 1 in [2, 5). *)
let two_jobs =
  {
    Qmodel.servers = 1;
    arrival = [| 1.0; 2.0 |];
    computer = [| 0; 0 |];
    completion = [| 3.0; 5.0 |];
    order = [| 0; 1 |];
  }

let queue_model () =
  Alcotest.(check (array int)) "events in time order" [| 0; 1; -1; -2 |] (Qmodel.events two_jobs);
  let b = Qmodel.ops ~arrival_events:true two_jobs in
  Alcotest.(check string) "batch: arrival events, pops for every event" "apadpcdpdp"
    (Bytes.to_string b.Qmodel.kind);
  Alcotest.(check int) "batch pops" 4 b.Qmodel.pops;
  let s = Qmodel.ops ~arrival_events:false two_jobs in
  Alcotest.(check string) "served: departures only" "dcdpdp" (Bytes.to_string s.Qmodel.kind);
  Alcotest.(check int) "served pops" 2 s.Qmodel.pops;
  Alcotest.(check (array (float 0.0))) "departure times" [| 3.0; 0.0; 3.0; 0.0; 5.0; 0.0 |] s.Qmodel.time

let spans () =
  let off = Spans.create ~enabled:false ~run:"r" in
  ignore (Spans.add off "x" ~start:0.0 ~stop:1.0);
  Alcotest.(check int) "disabled records nothing" 0 (Spans.count off);
  let on = Spans.create ~enabled:true ~run:"r" in
  let p = Spans.add on "parent" ~start:0.0 ~stop:10.0 in
  Alcotest.(check int) "first id" 0 p;
  for i = 1 to 3000 do
    Alcotest.(check int) "ids count up across growth" i
      (Spans.add on ~parent:p "grow" ~start:(float_of_int i) ~stop:(float_of_int i))
  done;
  Alcotest.(check int) "count" 3001 (Spans.count on)

let result_json () =
  let r = Result.create () in
  Result.add r "x_ms" "ms" 1.5;
  Result.check r true "fine";
  Result.check r false "broken";
  Alcotest.(check string) "json"
    "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"x_ms\": {\"value\": 1.5, \
     \"unit\": \"ms\"}}}"
    (Result.to_json r)

let () =
  Alcotest.run "perfbench"
    [
      ("pstats", [ Alcotest.test_case "tail rule" `Quick tail_rule; Alcotest.test_case "percentiles" `Quick percentiles ]);
      ( "schedule",
        [
          Alcotest.test_case "same seed, same schedule" `Quick same_seed_same_schedule;
          Alcotest.test_case "shape" `Quick schedule_shape;
          Alcotest.test_case "periodic" `Quick periodic;
          Alcotest.test_case "closed-loop sizes" `Quick closed_sizes;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "glue" `Quick glue;
          Alcotest.test_case "composition" `Quick ledger_composition;
          Alcotest.test_case "queue-operation model" `Quick queue_model;
        ] );
      ("spans", [ Alcotest.test_case "record" `Quick spans ]);
      ("result", [ Alcotest.test_case "json" `Quick result_json ]);
    ]
