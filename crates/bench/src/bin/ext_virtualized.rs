//! Extension experiment (paper §V-A future work): *virtualising* LLBP
//! into the cache hierarchy instead of dedicating SRAM to it.
//!
//! Backing the pattern-set store with the L2/LLC changes one thing the
//! predictor can feel: the prefetch latency. This sweep increases the
//! access delay from the dedicated-SRAM 6 cycles up to LLC-like latencies
//! and reports how much of LLBP's MPKI reduction survives — i.e. how much
//! slack the context prefetcher really has.

use llbp_bench::{emit, engine, mean_reduction, workload_specs, Opts};
use llbp_core::LlbpParams;
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{f1, Table};
use llbp_sim::PredictorKind;
use llbp_sim::SimConfig;

const DELAYS: [u64; 6] = [0, 6, 12, 20, 30, 45];

fn main() {
    let opts = Opts::from_args();

    let mut predictors = vec![PredictorKind::Tsl64K];
    for &d in &DELAYS {
        let params = LlbpParams {
            prefetch_delay: d,
            label: format!("LLBP@{d}cyc"),
            ..LlbpParams::default()
        };
        predictors.push(PredictorKind::Llbp(params));
    }
    let spec = SweepSpec::new(predictors, workload_specs(&opts), SimConfig::default());
    let report = llbp_bench::run_sweep(&engine(&opts), &spec);

    println!("# Extension — virtualised LLBP: MPKI reduction vs pattern-store latency");
    println!(
        "(6 cycles = the paper's dedicated SRAM; 12–45 model L2/LLC-backed storage, \
         the §V-A virtualisation future work)\n"
    );
    let mut table = Table::new(
        std::iter::once("metric".to_string()).chain(DELAYS.iter().map(|d| format!("{d} cyc"))),
    );
    let mut cells = vec!["mean MPKI reduction".to_string()];
    for (i, _) in DELAYS.iter().enumerate() {
        let vals: Vec<f64> = (0..opts.workloads.len())
            .map(|w| report.get(w, 1 + i).mpki_reduction_vs(report.get(w, 0)))
            .collect();
        cells.push(format!("{}%", f1(mean_reduction(&vals))));
    }
    table.row(cells);
    println!("{}", table.to_markdown());
    emit(&report, "ext_virtualized", &opts);
}
