//! Figure 14: sensitivity of the MPKI reduction and the LLBP capacity to
//! the number of contexts (pattern sets) and the pattern-set size.
//!
//! Paper: 16K contexts × 8 patterns ≈ −11%; doubling the set to 16 adds
//! ≈2.6%; 32 adds 1.4% more and 64 almost nothing; reduction scales
//! near-linearly with the context count until ≈14K and slows beyond;
//! ≈512 KiB (14K × 16) is the local optimum chosen for LLBP.
//!
//! Study mode (as in the paper): highly-associative context index, wide
//! context tags, no bucketing, zero latency. Context counts are powers of
//! two here (the paper also samples 10/12/14K).

use llbp_bench::{emit, engine, mean_reduction, workload_specs, Opts};
use llbp_core::LlbpParams;
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{f1, Table};
use llbp_sim::PredictorKind;
use llbp_sim::SimConfig;

const CONTEXTS: [usize; 5] = [8_192, 16_384, 32_768, 65_536, 131_072];
const SET_SIZES: [usize; 4] = [8, 16, 32, 64];

fn main() {
    let opts = Opts::from_args();

    // Predictor 0 is the baseline; then set-size-major × context-minor.
    let mut predictors = vec![PredictorKind::Tsl64K];
    for &set_size in &SET_SIZES {
        for &contexts in &CONTEXTS {
            predictors.push(PredictorKind::Llbp(LlbpParams::study_full_assoc(contexts, set_size)));
        }
    }
    let spec = SweepSpec::new(predictors, workload_specs(&opts), SimConfig::default());
    let report = llbp_bench::run_sweep(&engine(&opts), &spec);

    println!("# Figure 14 — contexts × pattern-set size (mean MPKI reduction & capacity)");
    println!("(paper: 16K×8 ≈ −11%; ×16 +2.6 more; ×32 +1.4; ×64 ≈ +0; ≈512KiB local optimum)\n");
    let mut table = Table::new(
        std::iter::once("patterns/set".to_string())
            .chain(CONTEXTS.iter().map(|c| format!("{}K ctx", c / 1024))),
    );
    for (si, &set_size) in SET_SIZES.iter().enumerate() {
        let mut cells = vec![set_size.to_string()];
        for (ci, _) in CONTEXTS.iter().enumerate() {
            let vals: Vec<f64> = (0..opts.workloads.len())
                .map(|w| {
                    let base = report.get(w, 0);
                    report.get(w, 1 + si * CONTEXTS.len() + ci).mpki_reduction_vs(base)
                })
                .collect();
            cells.push(format!("{}%", f1(mean_reduction(&vals))));
        }
        table.row(cells);
    }
    println!("{}", table.to_markdown());

    let mut cap = Table::new(
        std::iter::once("patterns/set".to_string())
            .chain(CONTEXTS.iter().map(|c| format!("{}K ctx", c / 1024))),
    );
    for &set_size in &SET_SIZES {
        let mut cells = vec![set_size.to_string()];
        for &contexts in &CONTEXTS {
            let params = LlbpParams::study_full_assoc(contexts, set_size);
            cells.push(format!("{} KiB", params.storage_bits() / 8192));
        }
        cap.row(cells);
    }
    println!("## LLBP capacity per configuration\n");
    println!("{}", cap.to_markdown());
    emit(&report, "fig14", &opts);
}
