//! The sweep engine must be bit-identical to the serial simulation path:
//! for every grid cell, the engine's `SimResult` equals what a plain
//! `SimConfig::run` over a freshly generated trace produces, at any worker
//! count.

use llbp_sim::engine::{SweepEngine, SweepSpec};
use llbp_sim::{PredictorKind, SimConfig};
use llbp_trace::{Workload, WorkloadSpec};

fn grid() -> SweepSpec {
    SweepSpec::new(
        vec![PredictorKind::Tsl64K, PredictorKind::TslScaled(2), PredictorKind::InfTage],
        vec![
            WorkloadSpec::named(Workload::Http).with_branches(4_000),
            WorkloadSpec::named(Workload::Tpcc).with_branches(4_000),
            WorkloadSpec::named(Workload::NodeApp).with_branches(4_000),
        ],
        SimConfig::default(),
    )
}

/// The serial reference: generate each trace independently and run each
/// cell with the plain one-shot path, no sharing, no threads.
fn serial_reference(spec: &SweepSpec) -> Vec<llbp_sim::SimResult> {
    let mut out = Vec::new();
    for w in &spec.workloads {
        let trace = w.generate();
        for p in &spec.predictors {
            out.push(spec.sim.run(p.clone(), &trace));
        }
    }
    out
}

#[test]
fn engine_matches_serial_at_any_worker_count() {
    let spec = grid();
    let reference = serial_reference(&spec);
    for workers in [1, 2, 3, 8] {
        let report = SweepEngine::with_workers(workers).run(&spec);
        assert_eq!(report.jobs.len(), reference.len(), "workers={workers}");
        for (i, rec) in report.jobs.iter().enumerate() {
            assert_eq!(rec.result, reference[i], "cell {i} diverged at workers={workers}");
        }
    }
}

#[test]
fn engine_runs_are_reproducible() {
    let spec = grid();
    let a = SweepEngine::with_workers(2).run(&spec);
    let b = SweepEngine::with_workers(4).run(&spec);
    for (ra, rb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(ra.result, rb.result);
        assert_eq!(ra.job, rb.job);
    }
}

#[test]
fn per_branch_tracking_survives_the_engine() {
    // The optional per-branch maps must also round-trip identically
    // (they exercise the FastHashMap-backed SimResult fields).
    let spec = SweepSpec::new(
        vec![PredictorKind::Tsl64K],
        vec![WorkloadSpec::named(Workload::Kafka).with_branches(5_000)],
        SimConfig { warmup_fraction: 0.25, track_per_branch: true },
    );
    let reference = serial_reference(&spec);
    let report = SweepEngine::with_workers(3).run(&spec);
    assert_eq!(report.jobs[0].result, reference[0]);
    assert!(report.jobs[0].result.per_branch_mispredicts.is_some());
}
