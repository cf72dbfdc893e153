(* simcheck — differential & metamorphic verification of the simulator.

   Sub-commands:
     oracle   seeded DES runs vs closed-form queueing theory
     meta     metamorphic relations (time scaling, permutations, ...)
     fuzz     random configurations vs structural invariants
     all      everything (what `dune build @simcheck` and CI run)

   Exit status 0 when every check passes, 1 otherwise; failures print a
   replayable `schedsim run` command and are also written to the file
   given by --out (or $SIMCHECK_OUT) for CI artifact upload. *)

open Cmdliner
module S = Statsched_simcheck
module E = Statsched_experiments
module Cli = Statsched_cli

let fast_t =
  Arg.(
    value & flag
    & info [ "fast" ]
        ~doc:
          "Reduced-scale tier for CI: shorter horizons, fewer replications \
           and fuzz cases.  The confidence bands adapt to the scale, so the \
           checks stay calibrated, just statistically blunter.")

let seed_t = Cli.seed ~default:20260806L ~doc:"Root random seed for the seeded runs."

let jobs_t =
  Cli.jobs
    ~doc:
      "Fan replications out over $(docv) OCaml domains (default: the \
       $(b,STATSCHED_JOBS) environment variable, else the machine's \
       recommended domain count).  Results are bit-identical for every \
       $(docv)."

let count_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "count" ] ~docv:"N"
        ~doc:"Number of fuzzed configurations (default 30, or 12 with --fast).")

let out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Write failing checks (with their replay commands) to $(docv).  \
           Defaults to the $(b,SIMCHECK_OUT) environment variable; no file is \
           written when neither is set or when everything passes.")

let scale_down (s : E.Config.scale) =
  { E.Config.horizon = s.E.Config.horizon /. 2.0;
    warmup = s.E.Config.warmup /. 2.0;
    reps = max 3 (s.E.Config.reps - 1) }

let oracle_checks ~fast ~seed ~jobs () =
  let scale =
    if fast then scale_down S.Oracle.default_scale else S.Oracle.default_scale
  in
  S.Oracle.run ~scale ~seed ?jobs ()

let meta_checks ~fast ~seed ~jobs () =
  let scale =
    if fast then scale_down S.Metamorphic.default_scale
    else S.Metamorphic.default_scale
  in
  S.Metamorphic.run ~scale ~seed ?jobs ()

let fuzz_checks ~fast ~seed ~count () =
  let count =
    match count with Some c -> c | None -> if fast then 12 else 30
  in
  S.Fuzz.run ~count ~seed:(Int64.to_int seed) ()

let report ~out checks elapsed =
  Format.printf "%a" S.Check.pp_list checks;
  let failures = S.Check.failures checks in
  Format.printf "simcheck: %d checks, %d failed (%.1f s)@."
    (List.length checks) (List.length failures) elapsed;
  let out =
    match out with Some _ -> out | None -> Sys.getenv_opt "SIMCHECK_OUT"
  in
  (match (failures, out) with
  | [], _ | _, None -> ()
  | _, Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun c -> output_string oc (Format.asprintf "%a@." S.Check.pp c))
          failures);
    Format.printf "wrote %d failing checks to %s@." (List.length failures) path);
  if S.Check.all_ok checks then 0 else 1

let tier_cmd name doc checks_of =
  let run fast seed jobs count out =
    Cli.guard ~jobs @@ fun () ->
    let start = Statsched_obs.Clock.now () in
    let checks = checks_of ~fast ~seed ~jobs ~count () in
    report ~out checks (Statsched_obs.Clock.elapsed ~since:start)
  in
  let term =
    Term.(ret (const run $ fast_t $ seed_t $ jobs_t $ count_t $ out_t))
  in
  Cmd.v (Cmd.info name ~doc) term

let oracle_cmd =
  tier_cmd "oracle"
    "Compare seeded simulator runs against closed-form queueing theory."
    (fun ~fast ~seed ~jobs ~count:_ () -> oracle_checks ~fast ~seed ~jobs ())

let meta_cmd =
  tier_cmd "meta" "Check metamorphic relations between simulator runs."
    (fun ~fast ~seed ~jobs ~count:_ () -> meta_checks ~fast ~seed ~jobs ())

let fuzz_cmd =
  tier_cmd "fuzz"
    "Fuzz random configurations against structural invariants."
    (fun ~fast ~seed ~jobs:_ ~count () -> fuzz_checks ~fast ~seed ~count ())

let all_cmd =
  tier_cmd "all" "Run every verification tier."
    (fun ~fast ~seed ~jobs ~count () ->
      oracle_checks ~fast ~seed ~jobs ()
      @ meta_checks ~fast ~seed ~jobs ()
      @ fuzz_checks ~fast ~seed ~count ())

let () =
  let doc = "differential & metamorphic verification of the schedsim simulator" in
  let info = Cmd.info "simcheck" ~version:"0.1.0" ~doc in
  exit (Cmd.eval' (Cmd.group ~default:Term.(const 2) info
                     [ oracle_cmd; meta_cmd; fuzz_cmd; all_cmd ]))
