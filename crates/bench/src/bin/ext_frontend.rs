//! Extension experiment: front-end pipeline-reset sources.
//!
//! LLBP's prefetcher is reset-sensitive (§VI, §VII-A): every late
//! front-end redirect squashes in-flight pattern-set prefetches. This
//! harness attributes resets to their source — direction mispredictions,
//! BTB misses on taken branches, return-stack mismatches, and
//! indirect-target mispredictions — per workload, explaining why
//! indirect-heavy workloads (PHPWiki) lose more of LLBP's benefit.

use llbp_bench::{emit, engine, workload_specs, Opts};
use llbp_core::LlbpParams;
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{f2, Table};
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

    println!("# Extension — pipeline-reset sources (per kilo-branch)");
    println!("(every reset squashes LLBP's in-flight prefetches, §VI)\n");
    let mut table = Table::new([
        "workload",
        "direction",
        "BTB miss",
        "RAS mismatch",
        "indirect target",
        "total/kbr",
    ]);
    for (i, w) in opts.workloads.iter().enumerate() {
        let rec = &report.jobs[i];
        let cell = rec.result.llbp.as_ref().expect("LLBP cell stats");
        let fe = cell.frontend;
        let dir = cell.llbp.pipeline_resets - fe.total_resets();
        let branches = rec.stats.branches;
        let per_kbr = |v: u64| f2(v as f64 * 1000.0 / branches as f64);
        table.row([
            w.to_string(),
            per_kbr(dir),
            per_kbr(fe.btb_resets),
            per_kbr(fe.ras_resets),
            per_kbr(fe.indirect_resets),
            per_kbr(dir + fe.total_resets()),
        ]);
    }
    println!("{}", table.to_markdown());
    emit(&report, "ext_frontend", &opts);
}
