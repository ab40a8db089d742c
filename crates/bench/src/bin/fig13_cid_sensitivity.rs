//! Figure 13: sensitivity of the MPKI reduction to the context-history
//! type (Uncond / Call-Ret / All) and the prefetch distance `D`.
//!
//! Paper: with D = 0 every history type sits at 3.5–4.8% (prefetches are
//! always late); Uncond peaks at −8.9% around D = 4; Call/Ret is too
//! coarse; All degrades as D grows (conditional noise).

use llbp_bench::{emit, engine, mean_reduction, workload_specs, Opts};
use llbp_core::{ContextHistoryKind, LlbpParams};
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{f1, Table};
use llbp_sim::PredictorKind;
use llbp_sim::SimConfig;

const DISTANCES: [usize; 6] = [0, 2, 4, 6, 8, 12];
const KINDS: [(ContextHistoryKind, &str); 3] = [
    (ContextHistoryKind::Unconditional, "Uncond"),
    (ContextHistoryKind::CallReturn, "Call/Ret"),
    (ContextHistoryKind::All, "All"),
];

fn main() {
    let opts = Opts::from_args();

    // Predictor 0 is the baseline; then kind-major × distance-minor.
    let mut predictors = vec![PredictorKind::Tsl64K];
    for (kind, _) in KINDS {
        for &d in &DISTANCES {
            let params = LlbpParams {
                history_kind: kind,
                prefetch_distance: d,
                label: format!("LLBP-{kind:?}-D{d}"),
                ..LlbpParams::default()
            };
            predictors.push(PredictorKind::Llbp(params));
        }
    }
    let spec = SweepSpec::new(predictors, workload_specs(&opts), SimConfig::default());
    let report = llbp_bench::run_sweep(&engine(&opts), &spec);

    println!("# Figure 13 — CID history type × prefetch distance D (mean MPKI reduction)");
    println!(
        "(paper: all types ≈3.5–4.8% at D=0; Uncond best ≈8.9% at D=4; All degrades with D)\n"
    );
    let mut table = Table::new(
        std::iter::once("history".to_string()).chain(DISTANCES.iter().map(|d| format!("D={d}"))),
    );
    for (k, (_, name)) in KINDS.iter().enumerate() {
        let mut cells = vec![(*name).to_string()];
        for (di, _) in DISTANCES.iter().enumerate() {
            let vals: Vec<f64> = (0..opts.workloads.len())
                .map(|w| {
                    let base = report.get(w, 0);
                    report.get(w, 1 + k * DISTANCES.len() + di).mpki_reduction_vs(base)
                })
                .collect();
            cells.push(format!("{}%", f1(mean_reduction(&vals))));
        }
        table.row(cells);
    }
    println!("{}", table.to_markdown());
    emit(&report, "fig13", &opts);
}
