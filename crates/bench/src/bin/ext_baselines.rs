//! Extension experiment: historical baselines vs TAGE-SC-L vs LLBP.
//!
//! Not a paper figure — context for the headline numbers: three decades
//! of direction predictors (gshare → two-level local → hashed perceptron
//! → TAGE-SC-L → TAGE-SC-L + LLBP) on the same workloads, with storage
//! budgets for scale.

use llbp_bench::{emit, engine, workload_specs, Opts};
use llbp_core::LlbpParams;
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{f2, Table};
use llbp_sim::PredictorKind;
use llbp_sim::SimConfig;

fn main() {
    let opts = Opts::from_args();

    // Budgets loosely matched to 64 KiB-class designs.
    let spec = SweepSpec::new(
        vec![
            PredictorKind::Gshare { index_bits: 18, history_bits: 16 }, // 64 KiB
            PredictorKind::TwoLevelLocal { bht_bits: 15, local_bits: 14 }, // ≈64 KiB
            PredictorKind::HashedPerceptron { tables: 8, index_bits: 13, segment_bits: 6 }, // 64 KiB
            PredictorKind::Tsl64K,
            PredictorKind::Llbp(LlbpParams::default()),
        ],
        workload_specs(&opts),
        SimConfig::default(),
    );
    let report = llbp_bench::run_sweep(&engine(&opts), &spec);

    let rows: Vec<_> = opts
        .workloads
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            (
                w,
                (
                    report.get(i, 0).mpki(),
                    report.get(i, 1).mpki(),
                    report.get(i, 2).mpki(),
                    report.get(i, 3).mpki(),
                    report.get(i, 4).mpki(),
                ),
            )
        })
        .collect();

    println!("# Extension — predictor generations (MPKI)");
    println!("(equal ≈64 KiB budgets; LLBP adds its 517 KiB second level)\n");
    let mut table = Table::new(["workload", "gshare", "2level", "perceptron", "64K TSL", "+LLBP"]);
    let mut sums = [0.0f64; 5];
    for (w, (g, t, p, tsl, llbp)) in &rows {
        for (s, v) in sums.iter_mut().zip([g, t, p, tsl, llbp]) {
            *s += *v / rows.len() as f64;
        }
        table.row([w.to_string(), f2(*g), f2(*t), f2(*p), f2(*tsl), f2(*llbp)]);
    }
    table.row([
        "Mean".to_string(),
        f2(sums[0]),
        f2(sums[1]),
        f2(sums[2]),
        f2(sums[3]),
        f2(sums[4]),
    ]);
    println!("{}", table.to_markdown());
    emit(&report, "ext_baselines", &opts);
}
