open Cmdliner
module Speeds = Statsched_core.Speeds

let speeds =
  let parse s =
    try Ok (Speeds.of_string s)
    with Invalid_argument _ -> Error (`Msg (Printf.sprintf "invalid speed list %S" s))
  in
  let print fmt s = Format.pp_print_string fmt (Speeds.to_string s) in
  Arg.(
    value
    & opt (conv (parse, print)) Speeds.table3
    & info [ "s"; "speeds" ] ~docv:"SPEEDS"
        ~doc:
          "Comma-separated computer speeds, with NxS groups allowed (e.g. \
           '1,1,2,10' or '5x1.0,4x1.5,1x12').  Default: the paper's Table 3 \
           configuration.")

let rho ~default ~doc =
  Arg.(value & opt float default & info [ "u"; "utilization" ] ~docv:"RHO" ~doc)

let seed ~default ~doc = Arg.(value & opt int64 default & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs ~doc =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "JOBS must be a positive integer (got %S)" s))
  in
  Arg.(
    value
    & opt (some (conv (parse, Format.pp_print_int))) None
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let journal ~doc = Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let journal_capacity ~default ~doc =
  Arg.(value & opt int default & info [ "journal-capacity" ] ~docv:"N" ~doc)

let metrics_out ~doc =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let guard ?jobs f =
  try
    (* Par reads STATSCHED_JOBS only when --jobs is absent. *)
    (match jobs with
    | Some None -> ignore (Statsched_par.Par.default_jobs ())
    | Some (Some _) | None -> ());
    `Ok (f ())
  with
  | Invalid_argument m | Sys_error m -> `Error (false, m)
  | Statsched_cluster.Sanitize.Violation { invariant; message } ->
    `Error (false, Printf.sprintf "sanitizer (%s): %s" invariant message)
