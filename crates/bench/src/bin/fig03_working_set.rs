//! Figure 3: the branch working set of a Tomcat-like workload.
//!
//! (a) Cumulative mispredictions over static branches (sorted by 64K TSL
//!     misprediction count) for TSL capacities 64K…1M and Inf TSL.
//!     Paper: 0.8% of branches cause ~40% of mispredictions; capacity
//!     doublings shave only 4–7% each.
//! (b) Useful patterns per static branch under Inf TSL. Paper: average
//!     14.1, the most-mispredicted branches have 100–9500.

use llbp_bench::{emit, engine, trace_cache, Opts};
use llbp_sim::engine::SweepSpec;
use llbp_sim::patterns::{rank_by_mispredictions, useful_patterns_per_branch};
use llbp_sim::report::{f1, f2, Table};
use llbp_sim::{PredictorKind, SimConfig};
use llbp_trace::{Workload, WorkloadSpec};

fn main() {
    let mut opts = Opts::from_args();
    if opts.workloads.len() == Workload::ALL.len() {
        // Default to the paper's case study.
        opts.workloads = vec![Workload::Tomcat];
    }
    let workload = opts.workloads[0];
    let cache = trace_cache(&opts);
    let wspec = WorkloadSpec::named(workload).with_branches(opts.branches);
    let trace = cache.get_or_generate(&wspec);

    // --- (a) cumulative mispredictions by capacity -----------------------
    let cfg = SimConfig { track_per_branch: true, ..SimConfig::default() };
    let ranked = rank_by_mispredictions(&trace);
    let total_statics = ranked.len().max(1);
    let top_n = (total_statics as f64 * 0.008).ceil() as usize; // top 0.8%

    let configs: Vec<(String, PredictorKind)> = vec![
        ("64K TSL".into(), PredictorKind::Tsl64K),
        ("128K TSL".into(), PredictorKind::TslScaled(2)),
        ("256K TSL".into(), PredictorKind::TslScaled(4)),
        ("512K TSL".into(), PredictorKind::TslScaled(8)),
        ("1M TSL".into(), PredictorKind::TslScaled(16)),
        ("Inf TSL".into(), PredictorKind::InfTsl),
    ];
    let spec =
        SweepSpec::new(configs.iter().map(|(_, kind)| kind.clone()).collect(), vec![wspec], cfg);
    let report = llbp_bench::run_sweep_with_cache(&engine(&opts), &spec, &cache);

    println!("# Figure 3 — working set of {workload} ({total_statics} static branches)");
    println!("(paper: top 0.8% of branches ≈ 40% of mispredictions; doublings add −4…−7% each)\n");

    let mut table_a = Table::new(["config", "mispredicts", "vs 64K", "top-0.8% share"]);
    let mut base_mis = None;
    let top_set: std::collections::HashSet<u64> =
        ranked.iter().take(top_n).map(|&(pc, _)| pc).collect();
    for (i, (label, _)) in configs.iter().enumerate() {
        let r = report.get(0, i);
        let per_branch = r.per_branch_mispredicts.as_ref().expect("tracking enabled");
        let top_share: u64 =
            per_branch.iter().filter(|(pc, _)| top_set.contains(pc)).map(|(_, &m)| m).sum();
        let base = *base_mis.get_or_insert(r.mispredictions);
        table_a.row([
            label.clone(),
            r.mispredictions.to_string(),
            format!("{}%", f1(100.0 * (1.0 - r.mispredictions as f64 / base as f64))),
            format!("{}%", f1(100.0 * top_share as f64 / r.mispredictions.max(1) as f64)),
        ]);
    }
    println!("## (a) mispredictions vs capacity\n");
    println!("{}", table_a.to_markdown());

    // --- (b) useful patterns per branch under infinite capacity ----------
    let tracker = useful_patterns_per_branch(&trace);
    let hist = tracker.histogram();
    let mut top_patterns: Vec<u64> =
        ranked.iter().take(100).map(|&(pc, _)| tracker.patterns_for(pc) as u64).collect();
    top_patterns.sort_unstable();

    let mut table_b = Table::new(["metric", "value"]);
    table_b.row(["branches with useful patterns".to_string(), hist.count().to_string()]);
    table_b.row(["avg patterns/branch".to_string(), f2(hist.mean().unwrap_or(0.0))]);
    table_b.row([
        "p50 / p95 / max".to_string(),
        format!(
            "{} / {} / {}",
            hist.percentile(50.0).unwrap_or(0),
            hist.percentile(95.0).unwrap_or(0),
            hist.max().unwrap_or(0)
        ),
    ]);
    table_b.row([
        "top-100 mispredicted: median / max patterns".to_string(),
        format!(
            "{} / {}",
            top_patterns.get(top_patterns.len() / 2).copied().unwrap_or(0),
            top_patterns.last().copied().unwrap_or(0)
        ),
    ]);
    println!("## (b) useful patterns per branch (Inf TAGE)");
    println!("(paper: avg 14.1; top-100 branches have >100, up to ~9500)\n");
    println!("{}", table_b.to_markdown());
    emit(&report, "fig03", &opts);
}
