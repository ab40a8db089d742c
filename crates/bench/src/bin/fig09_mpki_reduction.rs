//! Figure 9: branch MPKI reduction over the 64K TSL baseline for LLBP,
//! LLBP-0Lat and the (impractical) 512K TSL.
//!
//! Paper values: LLBP −0.5…−25.9% (avg −8.9%); LLBP-0Lat avg −9.9% (LLBP
//! reaches ~90% of the no-latency ideal); 512K TSL −12.5…−45.9%
//! (avg −27.3%).

use llbp_bench::{emit, engine, mean_reduction, workload_specs, Opts};
use llbp_core::LlbpParams;
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{f1, f2, Table};
use llbp_sim::PredictorKind;
use llbp_sim::SimConfig;

fn main() {
    let opts = Opts::from_args();

    let spec = SweepSpec::new(
        vec![
            PredictorKind::Tsl64K,
            PredictorKind::Llbp(LlbpParams::default()),
            PredictorKind::Llbp(LlbpParams::zero_latency()),
            PredictorKind::TslScaled(8),
        ],
        workload_specs(&opts),
        SimConfig::default(),
    );
    let report = llbp_bench::run_sweep(&engine(&opts), &spec);

    let mut table =
        Table::new(["workload", "64K TSL MPKI", "LLBP red.", "LLBP-0Lat red.", "512K TSL red."]);
    let (mut r_llbp, mut r_0lat, mut r_big) = (Vec::new(), Vec::new(), Vec::new());
    for (i, w) in opts.workloads.iter().enumerate() {
        let (base, llbp, zerolat, big) =
            (report.get(i, 0), report.get(i, 1), report.get(i, 2), report.get(i, 3));
        let a = llbp.mpki_reduction_vs(base);
        let b = zerolat.mpki_reduction_vs(base);
        let c = big.mpki_reduction_vs(base);
        r_llbp.push(a);
        r_0lat.push(b);
        r_big.push(c);
        table.row([
            w.to_string(),
            f2(base.mpki()),
            format!("{}%", f1(a)),
            format!("{}%", f1(b)),
            format!("{}%", f1(c)),
        ]);
    }
    table.row([
        "Mean".to_string(),
        String::new(),
        format!("{}%", f1(mean_reduction(&r_llbp))),
        format!("{}%", f1(mean_reduction(&r_0lat))),
        format!("{}%", f1(mean_reduction(&r_big))),
    ]);

    println!("# Figure 9 — MPKI reduction over 64K TSL");
    println!("(paper: LLBP avg −8.9%; LLBP-0Lat avg −9.9%; 512K TSL avg −27.3%)\n");
    println!("{}", table.to_markdown());
    emit(&report, "fig09", &opts);
}
