(* tracestat — recompute run metrics from a structured run journal and
   cross-validate them against the collector summary recorded in the
   same file, or export the journal as a per-job CSV or a Chrome trace.

   Exit codes: 0 all checks pass; 1 a cross-validation band failed;
   2 the file is corrupt, truncated, or unreadable. *)

open Cmdliner
module Journal_file = Tracestat_core.Journal_file
module Crossval = Tracestat_core.Crossval
module Export = Tracestat_core.Export
module Trace_event = Statsched_obs.Trace_event
module Band = Statsched_simcheck.Band
module Confidence = Statsched_stats.Confidence

let exit_band_fail = 1
let exit_corrupt = 2

let print_band (b : Band.t) =
  Printf.printf "[%s] %s: journal %s vs collector %s (tolerance %s)\n"
    (if b.Band.ok then "PASS" else "FAIL")
    b.Band.name
    (Format.asprintf "%a" Confidence.pp b.Band.interval)
    (Printf.sprintf "%.6g" b.Band.theory)
    (Printf.sprintf "%.3g" b.Band.allowance)

let load_or_die path =
  match Journal_file.load path with
  | Ok jf -> jf
  | Error (Journal_file.Corrupt reason) ->
    Printf.eprintf "tracestat: %s: CORRUPT journal (%s)\n" path reason;
    exit exit_corrupt
  | Error (Journal_file.Unsupported header) ->
    Printf.eprintf "tracestat: %s: unsupported journal version (%s)\n" path
      header;
    exit exit_corrupt

let check_run path bias util_bias =
  let jf = load_or_die path in
  match Crossval.validate ~bias ~util_bias jf with
  | Error reason ->
    Printf.eprintf "tracestat: %s: cannot cross-validate (%s)\n" path reason;
    exit exit_corrupt
  | Ok report ->
    List.iter print_band report.Crossval.bands;
    List.iter (fun n -> Printf.printf "note: %s\n" n) report.Crossval.notes;
    let failed =
      List.length (List.filter (fun (b : Band.t) -> not b.Band.ok) report.Crossval.bands)
    in
    Printf.printf "%d checks, %d failed\n" (List.length report.Crossval.bands) failed;
    if report.Crossval.ok then () else exit exit_band_fail

let show_run path =
  let jf = load_or_die path in
  List.iter
    (fun (k, v) -> Printf.printf "meta %s = %s\n" k v)
    jf.Journal_file.meta;
  Printf.printf "stride %d\n" jf.Journal_file.stride;
  List.iter
    (fun (k, n) -> Printf.printf "seen %s = %d\n" k n)
    jf.Journal_file.seen;
  Printf.printf "records retained = %d\n" (Array.length jf.Journal_file.records);
  List.iter
    (fun (k, v) -> Printf.printf "summary %s = %s\n" k v)
    jf.Journal_file.summary

type format = Csv | Chrome

let export_run format path out =
  let jf = load_or_die path in
  let stride = jf.Journal_file.stride in
  if stride > 1 then
    Printf.eprintf
      "tracestat: %s: sampled journal (stride %d): the export holds 1 in %d \
       records of each stream%s\n%!"
      path stride stride
      (match format with
      | Chrome -> "; capacity spans skipped"
      | Csv -> "");
  match format with
  | Csv ->
    let text = Export.csv jf in
    Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc text);
    let rows = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) (-1) text in
    Printf.printf "csv: %d rows -> %s\n" rows out
  | Chrome -> (
    match Export.chrome jf with
    | Error reason ->
      Printf.eprintf "tracestat: %s: cannot export (%s)\n" path reason;
      exit exit_corrupt
    | Ok tr ->
      Trace_event.write_json tr out;
      Printf.printf "chrome: %d events -> %s\n" (Trace_event.event_count tr) out)

let file_t =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input file.")

let bias_t =
  Arg.(
    value
    & opt float 0.02
    & info [ "bias" ] ~docv:"FRACTION"
        ~doc:
          "Relative bias allowance for the response-time/-ratio, dispatch-\
           fraction and availability bands.")

let util_bias_t =
  Arg.(
    value
    & opt float 0.05
    & info [ "util-bias" ] ~docv:"FRACTION"
        ~doc:
          "Relative bias allowance for per-computer utilization (its \
           completed-work estimator carries window-boundary error).")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Recompute mean response time/ratio, dispatch fractions, per-\
          computer utilization (and availability under faults) from the \
          journal records, and cross-validate each against the collector \
          summary within confidence bands.")
    Term.(const check_run $ file_t $ bias_t $ util_bias_t)

let show_cmd =
  Cmd.v
    (Cmd.info "show" ~doc:"Print a journal's meta, sampling state and summary.")
    Term.(const show_run $ file_t)

let export_cmd =
  let format_t =
    Arg.(
      required
      & pos 0 (some (enum [ ("csv", Csv); ("chrome", Chrome) ])) None
      & info [] ~docv:"FORMAT" ~doc:"$(b,csv) or $(b,chrome).")
  in
  let journal_t =
    Arg.(
      required & pos 1 (some file) None & info [] ~docv:"JOURNAL" ~doc:"Input journal.")
  in
  let out_t =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"OUT" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Render a journal as the per-job dispatch/completion CSV ($(b,csv)) \
          or as Chrome trace-event JSON with job spans, drops and capacity \
          spans ($(b,chrome), open in ui.perfetto.dev).  A stride-1 journal \
          exports every record of its run.")
    Term.(const export_run $ format_t $ journal_t $ out_t)

let () =
  let info =
    Cmd.info "tracestat" ~version:"1.0"
      ~doc:
        "Cross-validate a statsched run journal against its collector \
         summary (differential observability)."
  in
  exit (Cmd.eval (Cmd.group info [ check_cmd; show_cmd; export_cmd ]))
