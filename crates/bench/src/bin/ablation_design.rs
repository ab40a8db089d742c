//! Ablation study of LLBP's design choices (beyond the paper's explicit
//! sensitivity figures): pattern-set bucketing (§V-D), context-ID width,
//! CD replacement policy (the paper's "LRU is a poor policy choice"
//! claim), and prefetch-on-reset recovery.
//!
//! Each row is the mean MPKI reduction over the selected workloads versus
//! the 64K TSL baseline.

use llbp_bench::{emit, engine, mean_reduction, workload_specs, Opts};
use llbp_core::{CdReplacement, LlbpParams};
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{f1, Table};
use llbp_sim::PredictorKind;
use llbp_sim::SimConfig;

#[allow(clippy::field_reassign_with_default)]
fn variants() -> Vec<LlbpParams> {
    let mut v = Vec::new();
    v.push(LlbpParams::default());

    let mut nobkt = LlbpParams::default();
    nobkt.num_buckets = 1;
    nobkt.label = "no bucketing".into();
    v.push(nobkt);

    let mut cid31 = LlbpParams::default();
    cid31.cid_bits = 31;
    cid31.label = "31-bit CID".into();
    v.push(cid31);

    let mut lru = LlbpParams::default();
    lru.cd_replacement = CdReplacement::Lru;
    lru.label = "LRU CD replacement".into();
    v.push(lru);

    let mut nobkt_cid = LlbpParams::default();
    nobkt_cid.num_buckets = 1;
    nobkt_cid.cid_bits = 31;
    nobkt_cid.label = "no bucketing + 31-bit CID".into();
    v.push(nobkt_cid);

    let mut gated = LlbpParams::default();
    gated.weak_override_gate = true;
    gated.label = "weak-override gate".into();
    v.push(gated);

    v.push(LlbpParams::default().with_pb_entries(16));
    v.push(LlbpParams::default().with_pb_entries(256));
    v
}

fn main() {
    let opts = Opts::from_args();
    let variants = variants();

    let mut predictors = vec![PredictorKind::Tsl64K];
    predictors.extend(variants.iter().map(|p| PredictorKind::Llbp(p.clone())));
    let spec = SweepSpec::new(predictors, workload_specs(&opts), SimConfig::default());
    let report = llbp_bench::run_sweep(&engine(&opts), &spec);

    println!("# Ablation — LLBP design choices (mean MPKI reduction vs 64K TSL)");
    println!(
        "(paper claims: bucketing costs little [§V-D]; LRU set replacement is poor [§V-D]; \
         64-entry PB is the sweet spot [§VII-C/D])\n"
    );
    let mut table = Table::new(["variant", "mean MPKI reduction"]);
    for (i, p) in variants.iter().enumerate() {
        let vals: Vec<f64> = (0..opts.workloads.len())
            .map(|w| report.get(w, 1 + i).mpki_reduction_vs(report.get(w, 0)))
            .collect();
        table.row([p.label.clone(), format!("{}%", f1(mean_reduction(&vals)))]);
    }
    println!("{}", table.to_markdown());
    emit(&report, "ablation", &opts);
}
