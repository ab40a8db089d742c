//! Figure 10: speedup over the 64K TSL baseline for LLBP, LLBP-0Lat,
//! 512K TSL and a perfect conditional branch predictor.
//!
//! Paper values: LLBP avg +0.63%, LLBP-0Lat +0.71%, 512K TSL +1.26%,
//! perfect BP +3.6% (the paper notes ChampSim's core model understates
//! the perfect-BP headroom; our analytic model is similarly soft on
//! absolutes — the ordering is the reproducible part).

use llbp_bench::{emit, engine, mean_reduction, workload_specs, Opts};
use llbp_core::LlbpParams;
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{f2, Table};
use llbp_sim::{PredictorKind, SimConfig, TimingModel};

fn main() {
    let opts = Opts::from_args();
    let timing = TimingModel::default();

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

    let rows: Vec<_> = opts
        .workloads
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let (base, llbp, zerolat, big) =
                (report.get(i, 0), report.get(i, 1), report.get(i, 2), report.get(i, 3));
            let insts = base.instructions;
            (
                w,
                (
                    timing.speedup(insts, base.mispredictions, llbp.mispredictions),
                    timing.speedup(insts, base.mispredictions, zerolat.mispredictions),
                    timing.speedup(insts, base.mispredictions, big.mispredictions),
                    timing.speedup(insts, base.mispredictions, 0),
                ),
            )
        })
        .collect();

    let mut table = Table::new(["workload", "LLBP", "LLBP-0Lat", "512K TSL", "Perfect BP"]);
    let (mut s1, mut s2, mut s3, mut s4) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (w, (llbp, zerolat, big, perfect)) in &rows {
        s1.push(*llbp);
        s2.push(*zerolat);
        s3.push(*big);
        s4.push(*perfect);
        table.row([w.to_string(), f2(*llbp), f2(*zerolat), f2(*big), f2(*perfect)]);
    }
    table.row([
        "Mean".to_string(),
        f2(mean_reduction(&s1)),
        f2(mean_reduction(&s2)),
        f2(mean_reduction(&s3)),
        f2(mean_reduction(&s4)),
    ]);

    println!("# Figure 10 — speedup over 64K TSL (timing model)");
    println!("(paper: LLBP +0.63%, LLBP-0Lat +0.71%, 512K TSL +1.26%, perfect +3.6% on average)\n");
    println!("{}", table.to_markdown());
    emit(&report, "fig10", &opts);
}
