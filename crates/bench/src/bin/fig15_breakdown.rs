//! Figure 15: breakdown of LLBP's predictions into No-Override, Good/Bad
//! Override, Both-Correct and Both-Wrong, plus the provider mix.
//!
//! Paper values: LLBP provides for 14.8% of dynamic conditional branches;
//! when it matches, it overrides in 77% of cases; only 6.8% of overrides
//! are bad; 59% of overrides are redundant (both agree); 49% of all
//! predictions come from the bimodal table.

use llbp_bench::{emit, engine, workload_specs, Opts};
use llbp_core::{LlbpParams, LlbpStats};
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{pct, Table};
use llbp_sim::PredictorKind;
use llbp_sim::SimConfig;

fn main() {
    let opts = Opts::from_args();

    let spec = SweepSpec::new(
        vec![PredictorKind::Llbp(LlbpParams::default())],
        workload_specs(&opts),
        SimConfig::default(),
    );
    let report = llbp_bench::run_sweep(&engine(&opts), &spec);

    let mut total = LlbpStats::default();
    let mut conds = 0u64;
    let mut bim = 0u64;
    for (i, _w) in opts.workloads.iter().enumerate() {
        let result = report.get(i, 0);
        let s = &result.llbp.as_ref().expect("LLBP cell stats").llbp;
        total.predictions += s.predictions;
        total.llbp_matches += s.llbp_matches;
        total.no_override += s.no_override;
        total.good_override += s.good_override;
        total.bad_override += s.bad_override;
        total.both_correct += s.both_correct;
        total.both_wrong += s.both_wrong;
        conds += result.conditional_branches;
        bim += result.provider_counts.get("bim").copied().unwrap_or(0);
    }
    assert!(total.breakdown_is_consistent());

    let matches = total.llbp_matches.max(1) as f64;
    let overrides = total.overrides().max(1) as f64;

    println!("# Figure 15 — LLBP prediction breakdown (all workloads combined)");
    println!(
        "(paper: LLBP matches 14.8% of predictions; 77% of matches override; \
         6.8% of overrides bad; 59% redundant; bimodal provides 49% of all predictions)\n"
    );
    let mut table = Table::new(["metric", "value"]);
    table.row([
        "LLBP match rate".to_string(),
        pct(total.llbp_matches as f64 / total.predictions.max(1) as f64),
    ]);
    table.row(["override rate (of matches)".to_string(), pct(overrides / matches)]);
    table.row(["no-override (of matches)".to_string(), pct(total.no_override as f64 / matches)]);
    table.row([
        "good override (of overrides)".to_string(),
        pct(total.good_override as f64 / overrides),
    ]);
    table.row([
        "bad override (of overrides)".to_string(),
        pct(total.bad_override as f64 / overrides),
    ]);
    table.row([
        "redundant (both agree, of overrides)".to_string(),
        pct((total.both_correct + total.both_wrong) as f64 / overrides),
    ]);
    table.row([
        "bimodal share of all predictions".to_string(),
        pct(bim as f64 / conds.max(1) as f64),
    ]);
    println!("{}", table.to_markdown());
    emit(&report, "fig15", &opts);
}
