//! Attributes 64K TSL mispredictions to the synthetic workloads'
//! behaviour classes — the calibration tool used to tune the generator
//! (see `DESIGN.md` §3).
//!
//! ```sh
//! cargo run --release -p llbp-tage --example class_attribution [branches]
//! ```

use llbp_tage::{Predictor, TageScl, TslConfig};
use llbp_trace::synth::Behavior;
use llbp_trace::{BranchKind, Workload, WorkloadSpec};
use std::collections::HashMap;

fn class_of(b: &Option<Behavior>) -> &'static str {
    match b {
        None => "loop",
        Some(Behavior::Biased { .. }) => "biased",
        Some(Behavior::PathTable { .. }) => "path",
        Some(Behavior::GlobalParity { lookback }) if *lookback >= 8 => "parity-long",
        Some(Behavior::GlobalParity { .. }) => "parity-short",
        Some(Behavior::ContextTable { .. }) => "context",
        Some(Behavior::Random { .. }) => "random",
    }
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(500_000);
    for w in [Workload::Http, Workload::NodeApp, Workload::Tomcat] {
        let spec = WorkloadSpec::named(w).with_branches(n);
        let classes = spec.build_program().behavior_map();
        let trace = spec.generate();
        let mut p = TageScl::new(TslConfig::cbp64k());
        let mut per: HashMap<&'static str, (u64, u64)> = HashMap::new();
        let warmup = trace.len() / 3;
        for (i, r) in trace.iter().enumerate() {
            if r.kind() == BranchKind::Conditional {
                let pred = p.step(r.pc(), r.taken()).pred;
                if i > warmup {
                    let c = class_of(classes.get(&r.pc()).unwrap_or(&None));
                    let e = per.entry(c).or_default();
                    e.0 += 1;
                    e.1 += u64::from(pred != r.taken());
                }
            }
            p.update_history(r);
        }
        let total: u64 = per.values().map(|e| e.0).sum();
        let total_mis: u64 = per.values().map(|e| e.1).sum();
        println!("== {w}: post-warmup rate {:.3}", total_mis as f64 / total as f64);
        let mut rows: Vec<_> = per.into_iter().collect();
        rows.sort_by_key(|(_, (_, mis))| std::cmp::Reverse(*mis));
        for (class, (count, mis)) in rows {
            println!(
                "  {class:12} dyn-share={:5.1}%  rate={:.3}  share-of-mispredicts={:5.1}%",
                100.0 * count as f64 / total as f64,
                mis as f64 / count.max(1) as f64,
                100.0 * mis as f64 / total_mis.max(1) as f64
            );
        }
    }
}
