module Confidence = Statsched_stats.Confidence

type inputs = {
  table1 : Table1.result;
  fig2 : Fig2.result;
  fig3 : Sweep.rows;
  fig4 : Sweep.rows;
  fig5 : Sweep.rows;
  fig6_under : Sweep.rows;
  fig6_over : Sweep.rows;
}

let gather ?(scale = Config.default_scale) ?seed ?jobs () =
  {
    table1 = Table1.run ~scale ?seed ?jobs ();
    fig2 = Fig2.run ?seed ?jobs ();
    fig3 = Sweep.run ~scale ?seed ?jobs Studies.fig3;
    fig4 = Sweep.run ~scale ?seed ?jobs Studies.fig4;
    fig5 = Sweep.run ~scale ?seed ?jobs Studies.fig5;
    fig6_under = Sweep.run ~scale ?seed ?jobs Studies.fig6_under;
    fig6_over = Sweep.run ~scale ?seed ?jobs Studies.fig6_over;
  }

type outcome = {
  id : string;
  claim : string;
  expected : string;
  measured : string;
  pass : bool;
}

let ratio points name =
  (List.assoc name points).Runner.mean_response_ratio.Confidence.mean

let fairness points name = (List.assoc name points).Runner.fairness.Confidence.mean

let reduction ~better ~worse = 100.0 *. (1.0 -. (better /. worse))

(* Find the row of a sweep whose x is closest to [x]. *)
let row_near rows x =
  match rows with
  | [] -> invalid_arg "Paper_claims.row_near: empty sweep"
  | first :: rest ->
    let best = ref first in
    List.iter
      (fun (x', _ as row) -> if abs_float (x' -. x) < abs_float (fst !best -. x) then best := row)
      rest;
    snd !best

let evaluate inputs =
  let claims = ref [] in
  let add id claim expected measured pass =
    claims := { id; claim; expected; measured; pass } :: !claims
  in

  (* -------- Table 1 -------- *)
  let t1 = inputs.table1 in
  let slow_share = t1.Table1.measured_fractions.(0) in
  let slow_prop = t1.Table1.weighted_fractions.(0) in
  add "T1/slow-starved"
    "Least-Load gives slow computers much less than their proportional share"
    "slowest share < 0.5x proportional"
    (Printf.sprintf "%.2f%% vs proportional %.2f%%" (100. *. slow_share)
       (100. *. slow_prop))
    (slow_share < 0.5 *. slow_prop);
  let fast_share = t1.Table1.measured_fractions.(6) in
  let fast_prop = t1.Table1.weighted_fractions.(6) in
  add "T1/fast-overfed"
    "Least-Load sends the fastest computer more than its proportional share"
    "fastest share > proportional"
    (Printf.sprintf "%.1f%% vs %.1f%%" (100. *. fast_share) (100. *. fast_prop))
    (fast_share > fast_prop);

  (* -------- Figure 2 -------- *)
  let rr = inputs.fig2.Fig2.round_robin_summary.Statsched_stats.Summary.mean in
  let rand = inputs.fig2.Fig2.random_summary.Statsched_stats.Summary.mean in
  add "F2/rr-smoother"
    "round-robin deviations are much lower and less variable than random's"
    "mean deviation ratio > 3x"
    (Printf.sprintf "%.1fx" (rand /. rr))
    (rand > 3.0 *. rr);

  (* -------- Figure 3 -------- *)
  let f3_hi = row_near inputs.fig3 20.0 in
  let f3_lo = row_near inputs.fig3 1.0 in
  add "F3/optimized-wins-at-skew"
    "ORR and ORAN beat WRR and WRAN when the system is not homogeneous"
    "ORR < WRR and ORAN < WRAN at 20:1"
    (Printf.sprintf "ORR %.3f vs WRR %.3f; ORAN %.3f vs WRAN %.3f"
       (ratio f3_hi "ORR") (ratio f3_hi "WRR") (ratio f3_hi "ORAN")
       (ratio f3_hi "WRAN"))
    (ratio f3_hi "ORR" < ratio f3_hi "WRR"
    && ratio f3_hi "ORAN" < ratio f3_hi "WRAN");
  let red_orr = reduction ~better:(ratio f3_hi "ORR") ~worse:(ratio f3_hi "WRR") in
  add "F3/orr-vs-wrr@20"
    "at 20:1 speed ratio ORR outperforms WRR by 42% in mean response ratio"
    "reduction in [25%, 60%]"
    (Printf.sprintf "%.0f%%" red_orr)
    (25.0 <= red_orr && red_orr <= 60.0);
  let red_oran = reduction ~better:(ratio f3_hi "ORAN") ~worse:(ratio f3_hi "WRAN") in
  add "F3/oran-vs-wran@20"
    "at 20:1 speed ratio ORAN outperforms WRAN by 49%"
    "reduction in [30%, 65%]"
    (Printf.sprintf "%.0f%%" red_oran)
    (30.0 <= red_oran && red_oran <= 65.0);
  add "F3/wrr-beats-oran-homogeneous"
    "when the system is close to homogeneous, WRR performs better than ORAN"
    "WRR < ORAN at 1:1"
    (Printf.sprintf "WRR %.3f vs ORAN %.3f" (ratio f3_lo "WRR") (ratio f3_lo "ORAN"))
    (ratio f3_lo "WRR" < ratio f3_lo "ORAN");
  add "F3/oran-beats-wrr-skewed"
    "when speeds are very different, WRR is not as good as ORAN"
    "ORAN < WRR at 20:1"
    (Printf.sprintf "ORAN %.3f vs WRR %.3f" (ratio f3_hi "ORAN") (ratio f3_hi "WRR"))
    (ratio f3_hi "ORAN" < ratio f3_hi "WRR");
  add "F3/orr-approaches-least-load"
    "ORR's performance approaches Dynamic Least-Load as fast speed grows to ~20"
    "ORR within 15% of LeastLoad at 20:1"
    (Printf.sprintf "ORR %.3f vs LeastLoad %.3f" (ratio f3_hi "ORR")
       (ratio f3_hi "LeastLoad"))
    (ratio f3_hi "ORR" < 1.15 *. ratio f3_hi "LeastLoad");
  add "F3/fairness"
    "ORR and ORAN exhibit much better fairness than WRR and WRAN"
    "fairness(ORR) < fairness(WRR) and fairness(ORAN) < fairness(WRAN) at 10:1"
    (let f = row_near inputs.fig3 10.0 in
     Printf.sprintf "%.2f<%.2f; %.2f<%.2f" (fairness f "ORR") (fairness f "WRR")
       (fairness f "ORAN") (fairness f "WRAN"))
    (let f = row_near inputs.fig3 10.0 in
     fairness f "ORR" < fairness f "WRR" && fairness f "ORAN" < fairness f "WRAN");

  (* -------- Figure 4 -------- *)
  let f4_big =
    List.filter (fun (n, _) -> n >= 8.0) inputs.fig4 |> List.map snd
  in
  let reductions =
    List.map (fun pts -> reduction ~better:(ratio pts "ORR") ~worse:(ratio pts "WRAN")) f4_big
  in
  let min_red = List.fold_left min infinity reductions in
  let max_red = List.fold_left max neg_infinity reductions in
  add "F4/orr-vs-wran-by-size"
    "ORR reduces mean response ratio over WRAN by 35-40% beyond 6 computers"
    "every reduction in [25%, 50%]"
    (Printf.sprintf "range %.0f%%..%.0f%%" min_red max_red)
    (min_red >= 25.0 && max_red <= 50.0);
  let gap n =
    let pts = row_near inputs.fig4 n in
    ratio pts "ORR" /. ratio pts "LeastLoad"
  in
  add "F4/least-load-gap-grows"
    "the performance difference between ORR and Least-Load increases with system size"
    "ORR/LeastLoad ratio at n=20 > at n=4"
    (Printf.sprintf "%.2fx -> %.2fx" (gap 4.0) (gap 20.0))
    (gap 20.0 > gap 4.0);

  (* -------- Figure 5 -------- *)
  let orr_best_everywhere =
    List.for_all
      (fun (_, pts) ->
        let o = ratio pts "ORR" in
        o <= ratio pts "WRR" && o <= ratio pts "ORAN" && o <= ratio pts "WRAN")
      inputs.fig5
  in
  add "F5/orr-best-static"
    "ORR outperforms the other static algorithms at every load level"
    "ORR minimal among statics at each rho"
    (if orr_best_everywhere then "holds at every load" else "violated at some load")
    orr_best_everywhere;
  let f5_hi = row_near inputs.fig5 0.9 in
  let red_wrr = reduction ~better:(ratio f5_hi "ORR") ~worse:(ratio f5_hi "WRR") in
  let red_wran = reduction ~better:(ratio f5_hi "ORR") ~worse:(ratio f5_hi "WRAN") in
  add "F5/orr@0.9"
    "at 90% load ORR's mean response ratio is 24% below WRR's and 34% below WRAN's"
    "reductions in [8%, 45%] with WRAN gap > WRR gap"
    (Printf.sprintf "vs WRR %.0f%%, vs WRAN %.0f%%" red_wrr red_wran)
    (8.0 <= red_wrr && red_wrr <= 45.0 && red_wran > red_wrr);
  let ll_gap rho =
    let pts = row_near inputs.fig5 rho in
    ratio pts "ORR" /. ratio pts "LeastLoad"
  in
  add "F5/dynamic-needed-at-high-load"
    "the ORR vs Least-Load difference increases under very heavy load"
    "ORR/LeastLoad at 0.9 > at 0.5"
    (Printf.sprintf "%.2fx -> %.2fx" (ll_gap 0.5) (ll_gap 0.9))
    (ll_gap 0.9 > ll_gap 0.5);

  (* -------- Figure 6 -------- *)
  let f6u_hi = row_near inputs.fig6_under 0.9 in
  add "F6/underestimation-hurts"
    "large underestimation at high load offsets ORR's advantage (can fall below WRR)"
    "ORR(-15%) at rho 0.9 at least 25% worse than exact ORR"
    (Printf.sprintf "ORR(-15%%) %.3f vs ORR %.3f" (ratio f6u_hi "ORR(-15%)")
       (ratio f6u_hi "ORR"))
    (ratio f6u_hi "ORR(-15%)" > 1.25 *. ratio f6u_hi "ORR");
  let f6u_lo = row_near inputs.fig6_under 0.5 in
  add "F6/underestimation-benign-at-light-load"
    "underestimation does not affect performance much when the load is light"
    "ORR(-15%) within 25% of exact ORR at rho 0.5"
    (Printf.sprintf "%.3f vs %.3f" (ratio f6u_lo "ORR(-15%)") (ratio f6u_lo "ORR"))
    (ratio f6u_lo "ORR(-15%)" < 1.25 *. ratio f6u_lo "ORR");
  let over_ok =
    List.for_all
      (fun (rho, pts) ->
        rho > 0.85 || ratio pts "ORR(+10%)" < 1.2 *. ratio pts "ORR")
      inputs.fig6_over
  in
  add "F6/overestimation-benign"
    "ORR is relatively insensitive to load overestimation"
    "ORR(+10%) within 20% of exact ORR up to rho 0.8"
    (if over_ok then "holds" else "violated")
    over_ok;

  List.rev !claims

let to_report outcomes =
  let rows =
    List.map
      (fun o ->
        [
          Report.Text (if o.pass then "PASS" else "FAIL");
          Report.Text o.id;
          Report.Text o.expected;
          Report.Text o.measured;
        ])
      outcomes
  in
  let table = Report.render ~header:[ "verdict"; "claim"; "expected"; "measured" ] ~rows in
  let passed = List.length (List.filter (fun o -> o.pass) outcomes) in
  Printf.sprintf "%s\n%d / %d paper claims reproduced at this scale\n" table passed
    (List.length outcomes)
