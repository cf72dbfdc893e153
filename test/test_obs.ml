open Test_util
module Obs = Statsched_obs
module Hdr = Obs.Hdr_histogram
module Registry = Obs.Registry
module Trace_event = Obs.Trace_event
module Clock = Obs.Clock
module Core = Statsched_core
module Cluster = Statsched_cluster
module Workload = Cluster.Workload
module Simulation = Cluster.Simulation
module Scheduler = Cluster.Scheduler
module Fault = Cluster.Fault
module Telemetry = Cluster.Telemetry
module Job = Statsched_queueing.Job

(* ------------------------------------------------------------------ *)
(* HDR histogram                                                       *)

let hdr_basic () =
  let h = Hdr.create ~sub_count:2 ~lo:1.0 ~hi:16.0 () in
  Alcotest.(check int) "8 bins (4 octaves x 2)" 8 (Hdr.bin_count h);
  Hdr.add h 1.2;
  Hdr.add h 3.0;
  Hdr.add h 0.5;
  (* underflow *)
  Hdr.add h 100.0;
  (* overflow *)
  Alcotest.(check int) "count includes out-of-range" 4 (Hdr.count h);
  Alcotest.(check int) "underflow" 1 (Hdr.underflow h);
  Alcotest.(check int) "overflow" 1 (Hdr.overflow h);
  check_float ~eps:1e-12 "sum" 104.7 (Hdr.sum h);
  check_float ~eps:1e-12 "mean" (104.7 /. 4.0) (Hdr.mean h);
  check_float "min" 0.5 (Hdr.min_value h);
  check_float "max" 100.0 (Hdr.max_value h);
  (* 1.2 lands in [1, 1.5); 3.0 in [3, 4). *)
  let lo0, hi0 = Hdr.bin_range h 0 in
  check_float "bin 0 lower" 1.0 lo0;
  check_float "bin 0 upper" 1.5 hi0;
  Alcotest.(check int) "1.2 counted in bin 0" 1 (Hdr.bin_value h 0);
  (match Hdr.bin_index h 3.0 with
  | Some i ->
    let l, u = Hdr.bin_range h i in
    Alcotest.(check bool) "3.0's bin contains it" true (l <= 3.0 && 3.0 < u)
  | None -> Alcotest.fail "3.0 is in range");
  Alcotest.(check bool) "out-of-range has no bin" true (Hdr.bin_index h 100.0 = None)

let hdr_empty_and_validation () =
  let h = Hdr.create ~lo:1.0 ~hi:8.0 () in
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Hdr.mean h));
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (Hdr.quantile h 0.5));
  Alcotest.check_raises "lo <= 0" (Invalid_argument "Hdr_histogram.create: lo <= 0")
    (fun () -> ignore (Hdr.create ~lo:0.0 ~hi:1.0 ()));
  Alcotest.check_raises "hi <= lo" (Invalid_argument "Hdr_histogram.create: hi <= lo")
    (fun () -> ignore (Hdr.create ~lo:2.0 ~hi:2.0 ()));
  Alcotest.check_raises "NaN observation"
    (Invalid_argument "Hdr_histogram.add: NaN observation") (fun () -> Hdr.add h nan);
  Alcotest.check_raises "q outside (0,1)"
    (Invalid_argument "Hdr_histogram.quantile: q outside (0,1)") (fun () ->
      ignore (Hdr.quantile h 1.0))

(* Relative bucket resolution: every in-range value must land in a bin
   whose width is at most value/sub_count * 2 (log-linear guarantee). *)
let hdr_resolution () =
  let sub_count = 32 in
  let h = Hdr.create ~sub_count ~lo:1e-3 ~hi:1e7 () in
  let g = rng () in
  for _ = 1 to 1000 do
    let x = 1e-3 *. exp (Statsched_prng.Rng.float g *. log 1e10) in
    let x = min x 9.9e6 in
    match Hdr.bin_index h x with
    | None -> Alcotest.fail (Printf.sprintf "%g should be in range" x)
    | Some i ->
      let l, u = Hdr.bin_range h i in
      Alcotest.(check bool)
        (Printf.sprintf "%g in its bin [%g, %g)" x l u)
        true
        (l <= x && x < u);
      Alcotest.(check bool)
        (Printf.sprintf "bin width %g fine enough at %g" (u -. l) x)
        true
        (u -. l <= 2.0 *. x /. float_of_int sub_count)
  done

(* Acceptance check: p99 of 1e5 exponential samples agrees with the exact
   empirical p99 to within one bucket width. *)
let hdr_quantile_exponential () =
  let n = 100_000 in
  let g = rng ~seed:11L () in
  let h = Hdr.create ~lo:1e-3 ~hi:1e3 () in
  let samples = Array.init n (fun _ -> Statsched_dist.Exponential.sample ~rate:1.0 g) in
  Array.iter (Hdr.add h) samples;
  (* Exp(1) puts ~n/1000 samples below lo = 1e-3; none above 1e3. *)
  Alcotest.(check int) "no overflow" 0 (Hdr.overflow h);
  Alcotest.(check bool) "underflow stays in the far-left tail" true
    (Hdr.underflow h < n / 500);
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let exact =
        sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))
      in
      let est = Hdr.quantile h q in
      let width =
        match Hdr.bin_index h exact with
        | Some i ->
          let l, u = Hdr.bin_range h i in
          u -. l
        | None -> Alcotest.fail "exact quantile outside histogram range"
      in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.3f: |%.5g - %.5g| <= bucket width %.5g" q est exact
           width)
        true
        (abs_float (est -. exact) <= width))
    [ 0.5; 0.9; 0.99; 0.999 ]

let hdr_merge () =
  let layout () = Hdr.create ~sub_count:8 ~lo:0.01 ~hi:100.0 () in
  let a = layout () and b = layout () and both = layout () in
  let g = rng ~seed:5L () in
  for k = 1 to 2000 do
    let x = Statsched_dist.Exponential.sample ~rate:0.5 g in
    Hdr.add (if k mod 2 = 0 then a else b) x;
    Hdr.add both x
  done;
  Hdr.merge ~into:a b;
  Alcotest.(check int) "merged count" (Hdr.count both) (Hdr.count a);
  Alcotest.(check int) "merged underflow" (Hdr.underflow both) (Hdr.underflow a);
  Alcotest.(check int) "merged overflow" (Hdr.overflow both) (Hdr.overflow a);
  check_float ~eps:1e-9 "merged sum" (Hdr.sum both) (Hdr.sum a);
  check_float ~eps:0.0 "merged min" (Hdr.min_value both) (Hdr.min_value a);
  check_float ~eps:0.0 "merged max" (Hdr.max_value both) (Hdr.max_value a);
  for i = 0 to Hdr.bin_count both - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bin %d identical" i)
      (Hdr.bin_value both i) (Hdr.bin_value a i)
  done;
  List.iter
    (fun q -> check_float ~eps:0.0 "merged quantile" (Hdr.quantile both q) (Hdr.quantile a q))
    [ 0.5; 0.9; 0.99 ];
  Alcotest.check_raises "layout mismatch"
    (Invalid_argument "Hdr_histogram.merge: layouts differ") (fun () ->
      Hdr.merge ~into:a (Hdr.create ~lo:1.0 ~hi:2.0 ()))

(* ------------------------------------------------------------------ *)
(* Registry + Prometheus exposition                                    *)

let registry_basic () =
  let r = Registry.create () in
  let c = Registry.counter r ~labels:[ ("computer", "0") ] "jobs_total" in
  Registry.inc c;
  Registry.inc_by c 2.0;
  check_float "counter value" 3.0 (Registry.counter_value c);
  let c' = Registry.counter r ~labels:[ ("computer", "0") ] "jobs_total" in
  Registry.inc c';
  check_float "same handle on re-registration" 4.0 (Registry.counter_value c);
  let g = Registry.gauge r "temperature" in
  Registry.set g 1.5;
  check_float "gauge value" 1.5 (Registry.gauge_value g);
  Alcotest.(check int) "two metrics" 2 (Registry.metric_count r);
  Alcotest.(check bool) "negative increment rejected" true
    (match Registry.inc_by c (-1.0) with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "kind conflict rejected" true
    (match Registry.gauge r ~labels:[ ("computer", "0") ] "jobs_total" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "invalid metric name rejected" true
    (match Registry.counter r "bad name" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "invalid label name rejected" true
    (match Registry.counter r ~labels:[ ("le", "1"); ("0bad", "x") ] "ok_total" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let registry_prometheus_golden () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"Total frobs" ~labels:[ ("computer", "0") ] "frobs_total" in
  Registry.inc c;
  Registry.inc_by c 2.0;
  let g = Registry.gauge r "temp" in
  Registry.set g 1.5;
  let h = Registry.histogram r ~lo:1.0 ~hi:16.0 ~sub_count:2 "lat" in
  Hdr.add h 1.2;
  Hdr.add h 3.0;
  Hdr.add h 100.0;
  let expected =
    "# HELP frobs_total Total frobs\n\
     # TYPE frobs_total counter\n\
     frobs_total{computer=\"0\"} 3\n\
     # TYPE temp gauge\n\
     temp 1.5\n\
     # TYPE lat histogram\n\
     lat_bucket{le=\"1.5\"} 1\n\
     lat_bucket{le=\"4\"} 2\n\
     lat_bucket{le=\"+Inf\"} 3\n\
     lat_sum 104.2\n\
     lat_count 3\n"
  in
  Alcotest.(check string) "exposition text" expected (Registry.to_prometheus r)

let registry_family_grouping () =
  let r = Registry.create () in
  let c0 = Registry.counter r ~help:"per computer" ~labels:[ ("computer", "0") ] "x_total" in
  let mid = Registry.gauge r "y" in
  let c1 = Registry.counter r ~labels:[ ("computer", "1") ] "x_total" in
  Registry.inc c0;
  Registry.inc_by c1 5.0;
  Registry.set mid 2.0;
  let expected =
    "# HELP x_total per computer\n\
     # TYPE x_total counter\n\
     x_total{computer=\"0\"} 1\n\
     x_total{computer=\"1\"} 5\n\
     # TYPE y gauge\n\
     y 2\n"
  in
  Alcotest.(check string) "family members grouped under one TYPE" expected
    (Registry.to_prometheus r)

let registry_label_escaping () =
  let r = Registry.create () in
  let g = Registry.gauge r ~labels:[ ("path", "a\"b\\c\nd") ] "esc" in
  Registry.set g 1.0;
  Alcotest.(check string) "escaped label value"
    "# TYPE esc gauge\nesc{path=\"a\\\"b\\\\c\\nd\"} 1\n" (Registry.to_prometheus r)

let registry_reserved_suffixes () =
  let rejected f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  (* A histogram family owns its _bucket/_sum/_count series names. *)
  let r = Registry.create () in
  ignore (Registry.histogram r ~lo:1.0 ~hi:8.0 "lat");
  Alcotest.(check bool) "counter on histogram _bucket rejected" true
    (rejected (fun () -> Registry.counter r "lat_bucket"));
  Alcotest.(check bool) "gauge on histogram _sum rejected" true
    (rejected (fun () -> Registry.gauge r "lat_sum"));
  Alcotest.(check bool) "counter on histogram _count rejected" true
    (rejected (fun () -> Registry.counter r "lat_count"));
  (* ... and cannot be registered under names another metric shadows. *)
  let r = Registry.create () in
  ignore (Registry.counter r "x_sum");
  Alcotest.(check bool) "histogram shadowed by existing _sum rejected" true
    (rejected (fun () -> Registry.histogram r ~lo:1.0 ~hi:8.0 "x"));
  (* The bucket-boundary label is reserved on histograms only. *)
  let r = Registry.create () in
  Alcotest.(check bool) "le label on a histogram rejected" true
    (rejected (fun () ->
         Registry.histogram r ~labels:[ ("le", "0.5") ] ~lo:1.0 ~hi:8.0 "h"));
  ignore (Registry.counter r ~labels:[ ("le", "0.5") ] "c_total");
  (* A non-histogram _sum does not poison unrelated names, and a second
     label set of the same histogram family is still accepted. *)
  let r = Registry.create () in
  ignore (Registry.histogram r ~labels:[ ("computer", "0") ] ~lo:1.0 ~hi:8.0 "rt");
  ignore (Registry.histogram r ~labels:[ ("computer", "1") ] ~lo:1.0 ~hi:8.0 "rt");
  Alcotest.(check int) "family label sets coexist" 2 (Registry.metric_count r)

let registry_write_atomic () =
  let dir = Filename.temp_file "statsched-prom" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "metrics.prom" in
  let r = Registry.create () in
  let g = Registry.gauge r "up" in
  Registry.set g 1.0;
  Registry.write_prometheus r path;
  Alcotest.(check bool) "no temp file left behind" true
    (not (Sys.file_exists (path ^ ".tmp")));
  Alcotest.(check string) "file holds the exposition"
    (Registry.to_prometheus r)
    (In_channel.with_open_bin path In_channel.input_all);
  Sys.remove path;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Exposition grammar                                                   *)

(* Grammar-level lexer for the Prometheus text format (version 0.0.4):
   every line must be a HELP/TYPE comment or a sample
   [name{label="value",...} value], names must match the metric-name
   grammar, every sample's family must have exactly one TYPE line and it
   must precede the samples.  Returns the samples as
   [(name, labels, value)]. *)
let lex_exposition text =
  let is_name_start = function
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
    | _ -> false
  and is_name_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  let valid_name n =
    String.length n > 0 && is_name_start n.[0] && String.for_all is_name_char n
  in
  let typed = Hashtbl.create 16 in
  let samples = ref [] in
  let fail lineno what line =
    Alcotest.failf "exposition line %d: %s: %S" lineno what line
  in
  let lex_sample lineno line =
    let len = String.length line in
    let i = ref 0 in
    while !i < len && is_name_char line.[!i] do
      incr i
    done;
    let name = String.sub line 0 !i in
    if not (valid_name name) then fail lineno "invalid metric name" line;
    let labels = ref [] in
    if !i < len && Char.equal line.[!i] '{' then begin
      incr i;
      let fin = ref false in
      while not !fin do
        let start = !i in
        while !i < len && Char.equal line.[!i] '=' = false do
          incr i
        done;
        if !i >= len then fail lineno "unterminated label" line;
        let lname = String.sub line start (!i - start) in
        if not (valid_name lname) || String.contains lname ':' then
          fail lineno "invalid label name" line;
        incr i;
        if !i >= len || not (Char.equal line.[!i] '"') then
          fail lineno "label value not quoted" line;
        incr i;
        let buf = Buffer.create 16 in
        let closed = ref false in
        while not !closed do
          if !i >= len then fail lineno "unterminated label value" line;
          (match line.[!i] with
          | '\\' ->
            if !i + 1 >= len then fail lineno "dangling escape" line;
            (match line.[!i + 1] with
            | '\\' | '"' | 'n' -> Buffer.add_char buf line.[!i + 1]
            | _ -> fail lineno "invalid escape" line);
            i := !i + 1
          | '"' -> closed := true
          | c -> Buffer.add_char buf c);
          incr i
        done;
        labels := (lname, Buffer.contents buf) :: !labels;
        if !i < len && Char.equal line.[!i] ',' then incr i
        else if !i < len && Char.equal line.[!i] '}' then begin
          incr i;
          fin := true
        end
        else fail lineno "expected , or } after label" line
      done
    end;
    if !i >= len || not (Char.equal line.[!i] ' ') then
      fail lineno "expected space before value" line;
    let value_str = String.sub line (!i + 1) (len - !i - 1) in
    let value =
      match value_str with
      | "+Inf" -> infinity
      | "-Inf" -> neg_infinity
      | s -> (
        match float_of_string_opt s with
        | Some v -> v
        | None -> fail lineno "unparseable sample value" line)
    in
    if not (Hashtbl.mem typed name)
       && not
            (List.exists
               (fun suffix ->
                 match
                   if String.length name > String.length suffix
                      && String.equal
                           (String.sub name
                              (String.length name - String.length suffix)
                              (String.length suffix))
                           suffix
                   then
                     Some
                       (String.sub name 0
                          (String.length name - String.length suffix))
                   else None
                 with
                 | Some base -> Hashtbl.mem typed base
                 | None -> false)
               [ "_bucket"; "_sum"; "_count" ])
    then fail lineno "sample precedes its TYPE line" line;
    samples := (name, List.rev !labels, value) :: !samples
  in
  List.iteri
    (fun k line ->
      let lineno = k + 1 in
      if String.equal line "" then ()
      else if String.length line >= 7 && String.equal (String.sub line 0 7) "# HELP "
      then ()
      else if String.length line >= 7 && String.equal (String.sub line 0 7) "# TYPE "
      then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          if not (valid_name name) then fail lineno "invalid TYPE name" line;
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            fail lineno "unknown TYPE kind" line;
          if Hashtbl.mem typed name then fail lineno "duplicate TYPE" line;
          Hashtbl.add typed name kind
        | _ -> fail lineno "malformed TYPE line" line
      end
      else if String.length line >= 1 && Char.equal line.[0] '#' then
        fail lineno "unknown comment" line
      else lex_sample lineno line)
    (String.split_on_char '\n' text);
  List.rev !samples

(* Run the lexer over the full exposition of an instrumented run — every
   metric the telemetry layer exports must satisfy the grammar. *)
let exposition_grammar_full_run () =
  let speeds = Core.Speeds.table3 in
  let workload = Workload.paper_default ~rho:0.7 ~speeds in
  let cfg =
    Simulation.default_config
      ~faults:(Fault.exponential ~on_failure:Fault.Drop ~mtbf:2000.0 ~mttr:50.0 ())
      ~horizon:30_000.0 ~warmup:5_000.0 ~speeds ~workload
      ~scheduler:(Scheduler.static Core.Policy.orr) ()
  in
  let t = Telemetry.create cfg in
  let result =
    Simulation.run
      ~metric_histograms:(Telemetry.histograms t)
      ~on_dispatch:(Telemetry.on_dispatch t)
      ~on_completion:(Telemetry.on_completion t)
      ~on_drop:(Telemetry.on_drop t)
      ~on_rate_change:(Telemetry.on_rate_change t)
      cfg
  in
  Telemetry.finalize t result;
  let samples = lex_exposition (Registry.to_prometheus (Telemetry.registry t)) in
  Alcotest.(check bool) "a full run exports a rich exposition" true
    (List.length samples > 100);
  (* Histogram series obey the exposition contract: cumulative _bucket
     counts, strictly increasing finite [le] boundaries, a final +Inf
     bucket equal to _count. *)
  let bucket_groups = Hashtbl.create 8 in
  List.iter
    (fun (name, labels, value) ->
      let ln = String.length name in
      if ln > 7 && String.equal (String.sub name (ln - 7) 7) "_bucket" then begin
        let base = String.sub name 0 (ln - 7) in
        let le =
          match List.assoc_opt "le" labels with
          | Some "+Inf" -> infinity
          | Some s -> float_of_string s
          | None -> Alcotest.failf "bucket without le: %s" name
        in
        let others = List.remove_assoc "le" labels in
        let key = (base, others) in
        let prev =
          match Hashtbl.find_opt bucket_groups key with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace bucket_groups key ((le, value) :: prev)
      end)
    samples;
  Alcotest.(check bool) "histograms exported" true
    (Hashtbl.length bucket_groups > 0);
  Hashtbl.iter
    (fun (base, others) buckets ->
      let buckets = List.rev buckets in
      let rec check_monotone = function
        | (le1, c1) :: ((le2, c2) :: _ as tl) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: le strictly increasing (%g < %g)" base le1 le2)
            true (le1 < le2);
          Alcotest.(check bool)
            (Printf.sprintf "%s: cumulative counts (%g <= %g)" base c1 c2)
            true (c1 <= c2);
          check_monotone tl
        | _ -> ()
      in
      check_monotone buckets;
      (match List.rev buckets with
      | (le_last, c_last) :: _ ->
        Alcotest.(check bool) (base ^ ": last bucket is +Inf") true
          (Float.equal le_last infinity);
        let count =
          List.find_map
            (fun (name, labels, v) ->
              if String.equal name (base ^ "_count") && labels = others then
                Some v
              else None)
            samples
        in
        (match count with
        | Some c ->
          check_float ~eps:0.0 (base ^ ": +Inf bucket equals _count") c c_last
        | None -> Alcotest.failf "%s: histogram lacks _count" base)
      | [] -> Alcotest.failf "%s: empty bucket group" base))
    bucket_groups

(* Merged histograms must still expose a legal cumulative series. *)
let exposition_histogram_merge () =
  let r = Registry.create () in
  let h = Registry.histogram r ~lo:0.01 ~hi:100.0 ~sub_count:8 "merged" in
  let other = Hdr.create ~lo:0.01 ~hi:100.0 ~sub_count:8 () in
  let g = rng ~seed:3L () in
  for _ = 1 to 500 do
    Hdr.add h (Statsched_dist.Exponential.sample ~rate:0.5 g);
    Hdr.add other (Statsched_dist.Exponential.sample ~rate:2.0 g)
  done;
  Hdr.merge ~into:h other;
  let samples = lex_exposition (Registry.to_prometheus r) in
  let buckets =
    List.filter_map
      (fun (name, labels, v) ->
        if String.equal name "merged_bucket" then
          Some
            ( (match List.assoc_opt "le" labels with
              | Some "+Inf" -> infinity
              | Some s -> float_of_string s
              | None -> Alcotest.fail "bucket without le"),
              v )
        else None)
      samples
  in
  Alcotest.(check bool) "merge produced several buckets" true
    (List.length buckets > 2);
  let rec check = function
    | (le1, c1) :: ((le2, c2) :: _ as tl) ->
      Alcotest.(check bool)
        (Printf.sprintf "le %g < %g after merge" le1 le2)
        true (le1 < le2);
      Alcotest.(check bool)
        (Printf.sprintf "cumulative %g <= %g after merge" c1 c2)
        true (c1 <= c2);
      check tl
    | _ -> ()
  in
  check buckets;
  match List.rev buckets with
  | (le, c) :: _ ->
    Alcotest.(check bool) "last le is +Inf" true (Float.equal le infinity);
    check_float ~eps:0.0 "merged +Inf bucket counts all observations"
      (float_of_int (Hdr.count h))
      c
  | [] -> Alcotest.fail "no buckets"

let exposition_empty_histogram () =
  let r = Registry.create () in
  ignore (Registry.histogram r ~lo:1.0 ~hi:16.0 "idle");
  let expected =
    "# TYPE idle histogram\n\
     idle_bucket{le=\"+Inf\"} 0\n\
     idle_sum 0\n\
     idle_count 0\n"
  in
  Alcotest.(check string) "empty histogram exposes only the +Inf bucket"
    expected (Registry.to_prometheus r);
  (* And the lexer agrees it is well-formed. *)
  Alcotest.(check int) "three samples" 3
    (List.length (lex_exposition (Registry.to_prometheus r)))

(* ------------------------------------------------------------------ *)
(* Chrome trace events                                                 *)

let trace_event_golden () =
  let tr = Trace_event.create () in
  Trace_event.process_name tr ~pid:0 "jobs";
  Trace_event.complete tr ~cat:"job" ~name:"job" ~ts:1.0 ~dur:0.5 ~pid:0 ~tid:2
    ~args:[ ("id", Trace_event.Int 7); ("size", Trace_event.Num 2.5) ]
    ();
  Trace_event.instant tr ~name:"drop" ~ts:2.0 ~pid:1 ~tid:0 ();
  Alcotest.(check int) "event count" 3 (Trace_event.event_count tr);
  let expected =
    "{\"traceEvents\":[\
     {\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"args\":{\"name\":\"jobs\"}},\n\
     {\"name\":\"job\",\"cat\":\"job\",\"ph\":\"X\",\"ts\":1000000,\"dur\":500000,\"pid\":0,\"tid\":2,\"args\":{\"id\":7,\"size\":2.5}},\n\
     {\"name\":\"drop\",\"ph\":\"i\",\"ts\":2000000,\"pid\":1,\"tid\":0,\"s\":\"t\"}\
     ],\"displayTimeUnit\":\"ms\"}\n"
  in
  Alcotest.(check string) "trace JSON" expected (Trace_event.to_string tr)

let trace_event_escaping () =
  let tr = Trace_event.create () in
  Trace_event.instant tr ~name:"a\"b\n" ~ts:0.0 ~pid:0 ~tid:0 ();
  let s = Trace_event.to_string tr in
  Alcotest.(check bool) "quotes and newlines escaped" true
    (String.length s > 0
    && String.index_opt s '\n' <> None
    &&
    let needle = "\"a\\\"b\\n\"" in
    let rec find i =
      if i + String.length needle > String.length s then false
      else if String.sub s i (String.length needle) = needle then true
      else find (i + 1)
    in
    find 0)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let clock_monotone () =
  let t1 = Clock.now () in
  let t2 = Clock.now () in
  Alcotest.(check bool) "now is non-decreasing" true (t2 >= t1);
  Alcotest.(check bool) "elapsed is non-negative" true (Clock.elapsed ~since:t1 >= 0.0);
  Alcotest.(check bool) "elapsed clamps future origins" true
    (Clock.elapsed ~since:(t2 +. 1e9) = 0.0)

(* ------------------------------------------------------------------ *)
(* Telemetry never perturbs a run                                      *)

type observed = {
  result : Simulation.result;
  completion_order : int list;
}

let run_combo ?faults ~scheduler ~telemetry () =
  let speeds = Core.Speeds.table3 in
  let workload = Workload.paper_default ~rho:0.7 ~speeds in
  let cfg =
    Simulation.default_config ?faults ~horizon:40_000.0 ~warmup:10_000.0 ~speeds
      ~workload ~scheduler ()
  in
  let order = ref [] in
  let record job = order := job.Job.id :: !order in
  let result =
    match telemetry with
    | false -> Simulation.run ~on_completion:record cfg
    | true ->
      let journal = Obs.Journal.create ~capacity:(1 lsl 16) () in
      let t = Telemetry.create ~journal cfg in
      let r =
        Simulation.run
          ~metric_histograms:(Telemetry.histograms t)
          ~on_dispatch:(Telemetry.on_dispatch t)
          ~on_completion:(fun job ->
            Telemetry.on_completion t job;
            record job)
          ~on_drop:(Telemetry.on_drop t)
          ~on_rate_change:(Telemetry.on_rate_change t)
          cfg
      in
      Telemetry.finalize t r;
      Alcotest.(check bool) "telemetry collected metrics" true
        (Telemetry.metric_count t > 0);
      Alcotest.(check bool) "telemetry journaled every record" true
        (Obs.Journal.stride journal = 1 && Obs.Journal.length journal > 0);
      r
  in
  { result; completion_order = List.rev !order }

(* Acceptance criterion: a run with full telemetry (metrics + a stride-1
   journal, the run's complete record) is
   bit-identical to a bare run under the same seed, across static,
   dynamic, adaptive and faulty configurations. *)
let telemetry_bit_identity () =
  List.iter
    (fun (name, faults, scheduler) ->
      let plain = run_combo ?faults ~scheduler ~telemetry:false () in
      let instrumented = run_combo ?faults ~scheduler ~telemetry:true () in
      check_float ~eps:0.0
        (name ^ ": mean response time bit-identical")
        plain.result.Simulation.metrics.Core.Metrics.mean_response_time
        instrumented.result.Simulation.metrics.Core.Metrics.mean_response_time;
      check_float ~eps:0.0
        (name ^ ": mean response ratio bit-identical")
        plain.result.Simulation.metrics.Core.Metrics.mean_response_ratio
        instrumented.result.Simulation.metrics.Core.Metrics.mean_response_ratio;
      check_float ~eps:0.0
        (name ^ ": fairness bit-identical")
        plain.result.Simulation.metrics.Core.Metrics.fairness
        instrumented.result.Simulation.metrics.Core.Metrics.fairness;
      Alcotest.(check int)
        (name ^ ": same events executed")
        plain.result.Simulation.events_executed
        instrumented.result.Simulation.events_executed;
      Alcotest.(check int)
        (name ^ ": same arrivals")
        plain.result.Simulation.total_arrivals
        instrumented.result.Simulation.total_arrivals;
      Alcotest.(check int)
        (name ^ ": same heap high-water")
        plain.result.Simulation.heap_high_water
        instrumented.result.Simulation.heap_high_water;
      check_array ~eps:0.0
        (name ^ ": dispatch fractions bit-identical")
        plain.result.Simulation.dispatch_fractions
        instrumented.result.Simulation.dispatch_fractions;
      Alcotest.(check (list int))
        (name ^ ": completion order identical")
        plain.completion_order instrumented.completion_order)
    [
      ("ORR", None, Scheduler.static Core.Policy.orr);
      ("LeastLoad", None, Scheduler.least_load_paper);
      ("AdaptiveORR", None, Scheduler.adaptive_orr ());
      ( "ORR+drop-faults",
        Some (Fault.exponential ~on_failure:Fault.Drop ~mtbf:2000.0 ~mttr:50.0 ()),
        Scheduler.static Core.Policy.orr );
      ( "LeastLoad+resume-faults",
        Some (Fault.exponential ~on_failure:Fault.Resume ~mtbf:2000.0 ~mttr:50.0 ()),
        Scheduler.least_load_paper );
    ]

(* The progress heartbeat adds its own periodic events but must not
   change metrics or completion order. *)
let progress_preserves_metrics () =
  let speeds = Core.Speeds.table3 in
  let workload = Workload.paper_default ~rho:0.7 ~speeds in
  let cfg =
    Simulation.default_config ~horizon:40_000.0 ~warmup:10_000.0 ~speeds ~workload
      ~scheduler:(Scheduler.static Core.Policy.orr) ()
  in
  let order = ref [] in
  let plain = Simulation.run ~on_completion:(fun j -> order := j.Job.id :: !order) cfg in
  let plain_order = !order in
  order := [];
  let ticks = ref 0 in
  let with_progress =
    Simulation.run
      ~on_completion:(fun j -> order := j.Job.id :: !order)
      ~on_progress:
        ( 5_000.0,
          fun (p : Simulation.progress) ->
            incr ticks;
            Alcotest.(check bool) "progress time within horizon" true
              (p.Simulation.sim_time <= 40_000.0);
            Alcotest.(check bool) "monotone counters" true
              (p.Simulation.arrivals >= p.Simulation.completions
              && p.Simulation.measured <= p.Simulation.completions) )
      cfg
  in
  Alcotest.(check int) "heartbeat fired 8 times" 8 !ticks;
  check_float ~eps:0.0 "mean response time unchanged"
    plain.Simulation.metrics.Core.Metrics.mean_response_time
    with_progress.Simulation.metrics.Core.Metrics.mean_response_time;
  Alcotest.(check int) "same arrivals" plain.Simulation.total_arrivals
    with_progress.Simulation.total_arrivals;
  Alcotest.(check (list int)) "completion order unchanged" plain_order !order;
  Alcotest.(check bool) "heartbeat events counted" true
    (with_progress.Simulation.events_executed > plain.Simulation.events_executed)

let telemetry_fault_accounting () =
  let speeds = [| 1.0; 2.0 |] in
  let workload = Workload.paper_default ~rho:0.5 ~speeds in
  let cfg =
    Simulation.default_config
      ~faults:(Fault.exponential ~on_failure:Fault.Drop ~mtbf:1500.0 ~mttr:100.0 ())
      ~horizon:30_000.0 ~warmup:5_000.0 ~speeds ~workload
      ~scheduler:(Scheduler.static Core.Policy.wrr) ()
  in
  let journal = Obs.Journal.create ~capacity:(1 lsl 16) () in
  let t = Telemetry.create ~journal cfg in
  let result =
    Simulation.run
      ~metric_histograms:(Telemetry.histograms t)
      ~on_dispatch:(Telemetry.on_dispatch t)
      ~on_completion:(Telemetry.on_completion t)
      ~on_drop:(Telemetry.on_drop t)
      ~on_rate_change:(Telemetry.on_rate_change t)
      cfg
  in
  Telemetry.finalize t result;
  let text = Registry.to_prometheus (Telemetry.registry t) in
  List.iter
    (fun needle ->
      let rec find i =
        if i + String.length needle > String.length text then false
        else if String.sub text i (String.length needle) = needle then true
        else find (i + 1)
      in
      Alcotest.(check bool) (needle ^ " exported") true (find 0))
    [
      "# TYPE statsched_jobs_dispatched_total counter";
      "# TYPE statsched_response_time_seconds histogram";
      "statsched_response_time_seconds_bucket";
      "# TYPE statsched_fault_rate_changes_total counter";
      "statsched_computer_down_seconds{computer=\"0\"}";
      "statsched_availability";
      "statsched_des_events_per_second";
      "statsched_des_heap_high_water";
      "statsched_dispatch_drift{computer=\"1\"}";
    ];
  (* Down spans were recorded and the record stream is non-trivial. *)
  Alcotest.(check bool) "rate changes observed" true
    (match result.Simulation.fault_summary with
    | Some s -> s.Fault.failures > 0
    | None -> false);
  Alcotest.(check bool) "journal has rate records" true
    (Obs.Journal.kept journal Obs.Journal.Rate > 0);
  Alcotest.(check bool) "journal has job + fault records" true
    (Obs.Journal.kept journal Obs.Journal.Completion
     + Obs.Journal.kept journal Obs.Journal.Rate
    > 100)

let suite =
  [
    test "hdr: indexing, counts and ranges" hdr_basic;
    test "hdr: empty stats and validation" hdr_empty_and_validation;
    test "hdr: log-linear resolution bound" hdr_resolution;
    slow_test "hdr: quantiles vs exact on 1e5 exponential samples"
      hdr_quantile_exponential;
    test "hdr: merge is exact" hdr_merge;
    test "registry: handles, dedup and validation" registry_basic;
    test "registry: prometheus golden output" registry_prometheus_golden;
    test "registry: families share one TYPE header" registry_family_grouping;
    test "registry: label values escaped" registry_label_escaping;
    test "registry: histogram suffix collisions rejected" registry_reserved_suffixes;
    test "registry: prometheus file write is atomic" registry_write_atomic;
    slow_test "exposition: full-run output satisfies the grammar"
      exposition_grammar_full_run;
    test "exposition: merged histogram series stay cumulative"
      exposition_histogram_merge;
    test "exposition: empty histogram exposes only +Inf" exposition_empty_histogram;
    test "trace: chrome trace-event golden JSON" trace_event_golden;
    test "trace: string escaping" trace_event_escaping;
    test "clock: monotone and non-negative" clock_monotone;
    slow_test "telemetry: instrumented runs bit-identical" telemetry_bit_identity;
    slow_test "telemetry: progress heartbeat preserves the run"
      progress_preserves_metrics;
    slow_test "telemetry: fault accounting exported" telemetry_fault_accounting;
  ]
