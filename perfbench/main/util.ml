(* Clocks, memory probes and growable arrays shared by the workloads. *)

let now = Perfbench_lib.Mclock.now

(* Cost of one [now] call, subtracted from per-call timings that bracket
   a single short call with two clock reads. *)
let clock_cost =
  lazy
    (let n = 200_000 in
     let t0 = now () in
     for _ = 1 to n do
       ignore (Sys.opaque_identity (now ()))
     done;
     (now () -. t0) /. float_of_int n)

(* VmHWM (peak resident set) of a process, in MiB; [pid = None] is this
   process. *)
let vm_hwm_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* CPU time consumed so far by every thread of a process, in seconds,
   from the scheduler's nanosecond accounting ([/proc/PID/task/*/schedstat]);
   [pid = None] is this process.  Threads that have exited are not
   counted, so read it while the threads that did the work still live. *)
let cpu_s ?pid () =
  let dir =
    match pid with None -> "/proc/self/task" | Some p -> Printf.sprintf "/proc/%d/task" p
  in
  Array.fold_left
    (fun acc tid ->
      match open_in (Filename.concat (Filename.concat dir tid) "schedstat") with
      | ic ->
        let ns = try Scanf.sscanf (input_line ic) "%d" Fun.id with _ -> 0 in
        close_in ic;
        acc +. (float_of_int ns *. 1e-9)
      | exception Sys_error _ -> acc)
    0.0
    (try Sys.readdir dir with Sys_error _ -> [||])

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [time f], recorded as a span. *)
let spanned spans ?parent name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  ignore (Perfbench_lib.Spans.add spans ?parent name ~start:t0 ~stop:t1);
  (r, t1 -. t0)

(* Median wall time of [reps] calls of [f]. *)
let median_time ~reps f =
  Perfbench_lib.Pstats.median
    (Array.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         now () -. t0))

let minor_words () = Gc.minor_words ()

(* GC counters around a measured stretch; minor words come from
   [Gc.minor_words], which is exact between collections, unlike the
   [quick_stat] field. *)
type gc = { minor : float; promoted : float; minors : int; majors : int }

let gc () =
  let q = Gc.quick_stat () in
  {
    minor = Gc.minor_words ();
    promoted = q.Gc.promoted_words;
    minors = q.Gc.minor_collections;
    majors = q.Gc.major_collections;
  }

(* The four gc.* metrics of the ledger, per job. *)
let add_gc res ~jobs g0 g1 =
  let per_job x = x /. float_of_int (max 1 jobs) in
  let add = Perfbench_lib.Result.add res in
  add "gc.minor_words_per_job" "words" (per_job (g1.minor -. g0.minor));
  add "gc.promoted_words_per_job" "words" (per_job (g1.promoted -. g0.promoted));
  add "gc.minor_collections_per_job" "count" (per_job (float_of_int (g1.minors - g0.minors)));
  add "gc.major_collections" "count" (float_of_int (g1.majors - g0.majors))

(* Growable float / int arrays for recording streams without boxing. *)
module Fbuf = Perfbench_lib.Grow.Fbuf
module Ibuf = Perfbench_lib.Grow.Ibuf
