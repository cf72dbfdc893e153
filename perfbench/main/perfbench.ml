(* The benchmark's measuring program.  One run = one workload, one seed,
   one run length; [--trace 0] measures the end-to-end metrics with no
   spans recorded, [--trace 1] builds the per-layer ledger and writes its
   spans.  The last line of standard output is the JSON result; the
   table on standard error carries units, sample counts and notes. *)

module R = Perfbench_lib.Result
module Spans = Perfbench_lib.Spans

let workloads = [ "table3-orr"; "n10k-jsq"; "daemon-mixed"; "daemon-slowclient" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--root DIR] \
     [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let root = ref "." and out = ref "perfbench/out" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := t = "1"; parse rest
    | "--root" :: d :: rest -> root := d; parse rest
    | "--out" :: d :: rest -> out := d; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) then usage ();
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let run_id = Printf.sprintf "%s-seed%d-trace%d" !workload !seed (Bool.to_int !trace) in
  let spans = Spans.create ~enabled:!trace ~run:run_id in
  let env =
    { Served.root = !root; out = !out; seed = !seed; seconds = !seconds; spans }
  in
  let res = R.create () in
  at_exit Client.kill_all;
  (match (!workload, !trace) with
  | ("table3-orr" | "n10k-jsq"), false -> Sims.end_to_end env res (Sims.spec !workload)
  | ("table3-orr" | "n10k-jsq"), true -> Sims.traced env res (Sims.spec !workload)
  | _, false -> Served_workloads.end_to_end env res ~slow:(!workload = "daemon-slowclient")
  | _, true -> Served_workloads.traced env res ~slow:(!workload = "daemon-slowclient"));
  if !trace then Spans.write spans (Filename.concat !out (run_id ^ ".spans.tsv"))
  else R.check res (Spans.count spans = 0) "untraced run recorded spans";
  Printf.eprintf "%s (%s)\n" run_id (if !trace then "per-layer" else "end-to-end");
  R.print_table stderr res;
  print_endline (R.to_json res)
