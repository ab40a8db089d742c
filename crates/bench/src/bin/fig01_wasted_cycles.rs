//! Figure 1: fraction of execution cycles wasted on conditional-branch
//! mispredictions, for the ten server workloads under the 64K TSL
//! baseline.
//!
//! Paper values (Sapphire Rapids hardware, Top-Down): 3.6–20% of cycles,
//! 9.2% on average. Here the timing model substitutes for hardware
//! counters (DESIGN.md §3).

use llbp_bench::{emit, engine, mean_reduction, workload_specs, Opts};
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{pct, Table};
use llbp_sim::{PredictorKind, SimConfig, TimingModel};
use llbp_trace::Workload;

fn main() {
    let mut opts = Opts::from_args();
    // Fig. 1 covers only the server workloads (no Google traces).
    opts.workloads.retain(|w| Workload::SERVER.contains(w));

    let timing = TimingModel::default();

    let spec =
        SweepSpec::new(vec![PredictorKind::Tsl64K], workload_specs(&opts), SimConfig::default());
    let report = llbp_bench::run_sweep(&engine(&opts), &spec);

    let mut table = Table::new(["workload", "wasted cycles"]);
    let mut fractions = Vec::new();
    for (i, w) in opts.workloads.iter().enumerate() {
        let r = report.get(i, 0);
        let wasted = timing.wasted_fraction(r.instructions, r.mispredictions);
        fractions.push(wasted);
        table.row([w.to_string(), pct(wasted)]);
    }
    table.row(["GMean/Mean".to_string(), pct(mean_reduction(&fractions))]);

    println!("# Figure 1 — execution cycles wasted on conditional mispredictions");
    println!("(paper: 3.6–20%, avg 9.2%, measured on Sapphire Rapids hardware)\n");
    println!("{}", table.to_markdown());
    emit(&report, "fig01", &opts);
}
