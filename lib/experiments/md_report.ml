let buf_add = Buffer.add_string

let md_table buf ~header ~rows =
  buf_add buf ("| " ^ String.concat " | " header ^ " |\n");
  buf_add buf ("|" ^ String.concat "|" (List.map (fun _ -> "---") header) ^ "|\n");
  List.iter
    (fun row ->
      let cells = List.map (Report.cell_to_string ~pm:" ± ") row in
      buf_add buf ("| " ^ String.concat " | " cells ^ " |\n"))
    rows;
  buf_add buf "\n"

let md_sweep buf (s : Report.sweep) =
  buf_add buf (Printf.sprintf "**%s**\n\n" s.Report.title);
  md_table buf
    ~header:(s.Report.xlabel :: s.Report.columns)
    ~rows:(List.map (fun (x, cells) -> Report.Float x :: cells) s.Report.rows)

let generate ?(scale = Config.default_scale) ?(seed = Config.default_seed)
    ~inputs () =
  let buf = Buffer.create 65536 in
  let section title = buf_add buf (Printf.sprintf "\n## %s\n\n" title) in
  buf_add buf "# statsched reproduction report\n\n";
  buf_add buf
    (Printf.sprintf
       "Auto-generated by `Statsched_experiments.Md_report`.\n\
        Scale: **%s** (horizon %g s per run, %d replications per point); \
        seed %Ld.\n\
        Paper: Tang & Chanson, *Optimizing Static Job Scheduling in a Network \
        of Heterogeneous Computers*, ICPP 2000.\n"
       (Config.scale_name scale) scale.Config.horizon scale.Config.reps seed);

  section "Table 1 — workload split under Dynamic Least-Load";
  let t1 = inputs.Paper_claims.table1 in
  md_table buf
    ~header:[ "speed"; "measured"; "paper"; "speed-proportional" ]
    ~rows:
      (List.init
         (Array.length t1.Table1.speeds)
         (fun i ->
           [
             Report.Float t1.Table1.speeds.(i);
             Report.Percent t1.Table1.measured_fractions.(i);
             Report.Percent t1.Table1.paper_fractions.(i);
             Report.Percent t1.Table1.weighted_fractions.(i);
           ]));

  section "Figure 2 — allocation deviation per interval";
  let f2 = inputs.Paper_claims.fig2 in
  md_table buf
    ~header:[ "dispatcher"; "mean deviation"; "max deviation" ]
    ~rows:
      [
        [
          Report.Text "round-robin (Algorithm 2)";
          Report.Float f2.Fig2.round_robin_summary.Statsched_stats.Summary.mean;
          Report.Float f2.Fig2.round_robin_summary.Statsched_stats.Summary.max;
        ];
        [
          Report.Text "random";
          Report.Float f2.Fig2.random_summary.Statsched_stats.Summary.mean;
          Report.Float f2.Fig2.random_summary.Statsched_stats.Summary.max;
        ];
      ];

  section "Figure 3 — effect of speed skewness";
  List.iter (md_sweep buf) (Sweep.sweeps Studies.fig3 inputs.Paper_claims.fig3);

  section "Figure 4 — effect of system size";
  List.iter (md_sweep buf) (Sweep.sweeps Studies.fig4 inputs.Paper_claims.fig4);

  section "Figure 5 — effect of system load";
  List.iter (md_sweep buf) (Sweep.sweeps Studies.fig5 inputs.Paper_claims.fig5);

  section "Figure 6 — sensitivity to load-estimation error";
  List.iter (md_sweep buf)
    (Sweep.sweeps Studies.fig6_under inputs.Paper_claims.fig6_under
    @ Sweep.sweeps Studies.fig6_over inputs.Paper_claims.fig6_over);

  section "Paper-claims scoreboard";
  let outcomes = Paper_claims.evaluate inputs in
  md_table buf
    ~header:[ "verdict"; "claim"; "expected"; "measured" ]
    ~rows:
      (List.map
         (fun o ->
           [
             Report.Text (if o.Paper_claims.pass then "✅ PASS" else "❌ FAIL");
             Report.Text o.Paper_claims.id;
             Report.Text o.Paper_claims.expected;
             Report.Text o.Paper_claims.measured;
           ])
         outcomes);
  let passed = List.length (List.filter (fun o -> o.Paper_claims.pass) outcomes) in
  buf_add buf
    (Printf.sprintf "**%d / %d paper claims reproduced at this scale.**\n" passed
       (List.length outcomes));
  Buffer.contents buf

let generate_fresh ?(scale = Config.default_scale) ?seed ?jobs () =
  let inputs = Paper_claims.gather ~scale ?seed ?jobs () in
  generate ~scale ?seed ~inputs ()

let write ~path doc =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc doc)
