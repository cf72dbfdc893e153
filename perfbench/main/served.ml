(* A served session end to end: spawn [schedsimd] (after timing its
   set-up on a few throwaway spawns), run an open-loop {!Session},
   read the daemon's peak memory, drain it, and check what it served. *)

module R = Perfbench_lib.Result

type env = {
  root : string;  (** checkout holding the built tree *)
  out : string;  (** where journals, metrics and spans go *)
  seed : int;
  seconds : float;
  spans : Perfbench_lib.Spans.t;
}

let schedsimd env = Filename.concat env.root "_build/default/bin/schedsimd.exe"
let tracestat env = Filename.concat env.root "_build/default/tools/tracestat/tracestat.exe"

type served = {
  session : Session.t;
  setup : float array;  (** spawn to first healthy answer, seconds *)
  hwm_mb : float;  (** the loaded daemon's VmHWM before drain *)
  cpu_s : float;  (** the daemon's CPU time over the session *)
  time_scale : float;
}

let args env ~tag ~speeds ~policy ~time_scale =
  [
    "-s"; speeds; "-u"; "0.7"; "-p"; policy; "--port"; "0";
    "--time-scale"; Printf.sprintf "%.17g" time_scale;
    "--seed"; string_of_int env.seed;
    (* Room for the burst of posts that queue up behind a stalled
       connection; the default 1000 would refuse part of it. *)
    "--backlog-limit"; "100000";
    (* Room for every record of a run (three per job, about 2.8·10⁵ jobs
       at most so far), so the journal is never thinned: [tracestat
       check] then compares complete data and runs its utilization
       bands too.  Thinned to every 16th record, as the default 65536
       left it, one run in about fifteen failed a band. *)
    "--journal-capacity"; "1048576";
    "--journal"; Filename.concat env.out (tag ^ ".journal");
    "--metrics-out"; Filename.concat env.out (tag ^ ".prom");
  ]

(* Sum of every sample of a per-computer counter family in a Prometheus
   text file. *)
let sum_family path family =
  let ic = open_in path in
  let total = ref 0.0 in
  let prefix = family ^ "{" in
  let lp = String.length prefix in
  (try
     while true do
       let line = input_line ic in
       if String.length line > lp && String.sub line 0 lp = prefix then
         match String.rindex_opt line ' ' with
         | Some i ->
           total :=
             !total +. float_of_string (String.sub line (i + 1) (String.length line - i - 1))
         | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  !total

let run_tool exe args =
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) (Lazy.force Client.devnull)
      (Lazy.force Client.devnull) (Lazy.force Client.devnull)
  in
  snd (Unix.waitpid [] pid) = Unix.WEXITED 0

let spanned env name f = fst (Util.spanned env.spans ("served." ^ name) f)

(* Drain the daemon and check what it served: accepted posts, arrivals
   and completions agree, and [tracestat check] passes on its journal. *)
let check_drained env res ~tag d session =
  let _out, clean = spanned env "drain" (fun () -> Client.drain d) in
  R.check res clean (tag ^ ": schedsimd did not exit cleanly after /drain");
  let accepted = float_of_int (Session.accepted session) in
  let prom = Filename.concat env.out (tag ^ ".prom") in
  let arrivals = sum_family prom "statsched_jobs_dispatched_total" in
  let completions = sum_family prom "statsched_jobs_completed_total" in
  R.check res
    (Float.equal accepted arrivals && Float.equal arrivals completions)
    (Printf.sprintf "%s: at drain accepted %g, arrivals %g, completions %g differ" tag
       accepted arrivals completions);
  R.check res
    (spanned env "tracestat" (fun () ->
         run_tool (tracestat env) [ "check"; Filename.concat env.out (tag ^ ".journal") ]))
    (tag ^ ": tracestat check failed on the journal")

(* [probes] throwaway spawns time the set-up; the loaded daemon's own
   spawn is one more sample.  With [drain] (the default) the daemon is
   drained and what it served is checked into [res]; without, it is
   killed once the session ends. *)
let run ?(drain = true) env res ~tag ~speeds ~policy ~time_scale ~probes plan =
  let argv = args env ~tag ~speeds ~policy ~time_scale in
  let exe = schedsimd env in
  let setup =
    List.init probes (fun _ ->
        let d = Client.spawn ~exe ~args:argv in
        Client.stop d;
        d.Client.healthy -. d.Client.spawned)
  in
  let d = spanned env "spawn" (fun () -> Client.spawn ~exe ~args:argv) in
  let setup = Array.of_list ((d.Client.healthy -. d.Client.spawned) :: setup) in
  let cpu0 = Util.cpu_s ~pid:d.Client.pid () in
  let session =
    spanned env "session" (fun () ->
        Session.run ~port:d.Client.port ~seed:env.seed ~cpu:(Util.cpu_s ~pid:d.Client.pid) plan)
  in
  let cpu_s = Util.cpu_s ~pid:d.Client.pid () -. cpu0 in
  let hwm_mb = Util.vm_hwm_mb ~pid:d.Client.pid () in
  if drain then check_drained env res ~tag d session
  else Client.stop ~signal:Sys.sigkill d;
  { session; setup; hwm_mb; cpu_s; time_scale }
