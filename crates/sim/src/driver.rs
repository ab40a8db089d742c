//! The trace-driven simulation loop.
//!
//! One loop runs every simulation. Per trace record it calls
//! [`Predictor::step`] on a conditional branch (predict, then train on the
//! resolved outcome) and [`Predictor::update_history`] on every branch.
//! It walks the trace's structure-of-arrays view ([`Trace::soa`]) in
//! [`SIM_BLOCK`]-record blocks: cancellation polls and progress
//! accounting happen at block boundaries, and a measured block's
//! instruction count is one vectorizable sum over its packed-meta column.
//! No block straddles the warmup boundary, so each block is either all
//! warmup or all measured.

use crate::config::SimConfig;
use crate::error::{CancelToken, SimError};
use bputil::hash::FastHashMap;
use llbp_core::LlbpStats;
use llbp_prov::ProvRecorder;
use llbp_tage::{FrontEndStats, Predictor, ProviderKind};
use llbp_trace::Trace;

/// Records per block of the simulation loop. A power of two, small
/// enough that a watchdog deadline is honored within milliseconds.
pub const SIM_BLOCK: usize = 4096;

/// Packed-meta decode masks (see [`llbp_trace::BranchRecord::packed_meta`]).
const META_KIND_MASK: u32 = 0x7;
const META_COND: u32 = 0; // BranchKind::Conditional encoding
const META_TAKEN_BIT: u32 = 0x8;

/// Internal LLBP predictor statistics captured alongside a [`SimResult`]
/// when the simulated design is an LLBP (bandwidth, energy and breakdown
/// figures need them; carrying them in the result lets those figures run
/// through the sweep engine and be memoized like any other cell).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LlbpCellStats {
    /// The LLBP-level counters (matches, overrides, storage traffic, …).
    pub llbp: LlbpStats,
    /// Front-end reset attribution (BTB / RAS / indirect).
    pub frontend: FrontEndStats,
}

/// Measured outcome of one simulation run (post-warmup statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Predictor label ("64K TSL", "LLBP", …).
    pub label: String,
    /// Workload/trace name.
    pub workload: String,
    /// Instructions represented by the measured region.
    pub instructions: u64,
    /// Conditional branches measured.
    pub conditional_branches: u64,
    /// Mispredicted conditional branches.
    pub mispredictions: u64,
    /// Final-direction provider attribution.
    pub provider_counts: FastHashMap<&'static str, u64>,
    /// Per-static-branch misprediction counts, when enabled.
    pub per_branch_mispredicts: Option<FastHashMap<u64, u64>>,
    /// Per-static-branch execution counts, when enabled.
    pub per_branch_executions: Option<FastHashMap<u64, u64>>,
    /// LLBP-internal statistics, when the simulated design is an LLBP
    /// (populated by [`SimConfig::run`], `None` for other predictors).
    pub llbp: Option<LlbpCellStats>,
}

impl SimResult {
    /// Mispredictions per kilo-instruction — the paper's headline metric.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mispredictions as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Misprediction rate over conditional branches.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        if self.conditional_branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.conditional_branches as f64
        }
    }

    /// Relative MPKI reduction versus a baseline result, in percent
    /// (positive = better than baseline).
    #[must_use]
    pub fn mpki_reduction_vs(&self, baseline: &SimResult) -> f64 {
        if baseline.mispredictions == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.mpki() / baseline.mpki())
        }
    }
}

/// One simulation's inputs other than the predictor.
pub(crate) struct Simulation<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) trace: &'a Trace,
    pub(crate) token: &'a CancelToken,
    /// Bumped by each block's record count, so a completed run reports
    /// exactly [`Trace::len`] records.
    pub(crate) progress: &'a llbp_obs::Counter,
    /// Offered every *measured* conditional branch with its
    /// [`llbp_tage::PredictionInfo`]; warmup branches are never recorded.
    pub(crate) prov: &'a mut ProvRecorder,
}

impl Simulation<'_> {
    /// Runs `predictor` over the trace: warmup, then measurement.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the token fires mid-run.
    pub(crate) fn run<P: Predictor + ?Sized>(
        self,
        predictor: &mut P,
    ) -> Result<SimResult, SimError> {
        let Simulation { cfg, trace, token, progress, prov } = self;
        let warmup = (trace.len() as f64 * cfg.warmup_fraction.clamp(0.0, 1.0)) as usize;
        let soa = trace.soa();
        let (pcs, metas) = (soa.pcs(), soa.metas());
        let records = trace.records();
        let mut result = SimResult {
            label: predictor.label().to_string(),
            workload: trace.name().to_string(),
            instructions: 0,
            conditional_branches: 0,
            mispredictions: 0,
            provider_counts: FastHashMap::default(),
            per_branch_mispredicts: cfg.track_per_branch.then(FastHashMap::default),
            per_branch_executions: cfg.track_per_branch.then(FastHashMap::default),
            llbp: None,
        };
        // Providers are a tiny closed set; counting into a fixed array and
        // materialising the map once afterwards keeps string hashing out
        // of the loop.
        let mut providers = [0u64; ProviderKind::COUNT];
        let mut i = 0;
        while i < records.len() {
            if token.is_cancelled() {
                return Err(token.cancellation_error());
            }
            let measured = i >= warmup;
            let end = (i + SIM_BLOCK).min(if measured { records.len() } else { warmup });
            if measured {
                result.instructions +=
                    metas[i..end].iter().map(|&meta| u64::from(meta >> 4) + 1).sum::<u64>();
            }
            for j in i..end {
                let meta = metas[j];
                if meta & META_KIND_MASK == META_COND {
                    let (pc, taken) = (pcs[j], meta & META_TAKEN_BIT != 0);
                    let info = predictor.step(pc, taken);
                    if measured {
                        let wrong = info.pred != taken;
                        result.conditional_branches += 1;
                        result.mispredictions += u64::from(wrong);
                        providers[info.provider.ordinal()] += 1;
                        if let Some(map) = &mut result.per_branch_executions {
                            *map.entry(pc).or_default() += 1;
                        }
                        if wrong {
                            if let Some(map) = &mut result.per_branch_mispredicts {
                                *map.entry(pc).or_default() += 1;
                            }
                        }
                        prov.record(pc, taken, &info);
                    }
                }
                predictor.update_history(&records[j]);
            }
            progress.add((end - i) as u64);
            i = end;
        }
        for (ordinal, &count) in providers.iter().enumerate() {
            if count > 0 {
                result.provider_counts.insert(ProviderKind::LABELS[ordinal], count);
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PredictorKind, SimConfig};
    use llbp_trace::{Workload, WorkloadSpec};

    #[test]
    fn warmup_region_is_excluded() {
        let trace = WorkloadSpec::named(Workload::Http).with_branches(9_000).generate();
        let all = SimConfig { warmup_fraction: 0.0, ..SimConfig::default() }
            .run(PredictorKind::Tsl64K, &trace);
        let warm = SimConfig { warmup_fraction: 0.5, ..SimConfig::default() }
            .run(PredictorKind::Tsl64K, &trace);
        assert!(warm.conditional_branches < all.conditional_branches);
        assert!(warm.instructions < all.instructions);
    }

    #[test]
    fn per_branch_tracking_sums_to_totals() {
        let trace = WorkloadSpec::named(Workload::Tpcc).with_branches(8_000).generate();
        let cfg = SimConfig { warmup_fraction: 0.25, track_per_branch: true };
        let r = cfg.run(PredictorKind::Tsl64K, &trace);
        let sum_mis: u64 = r.per_branch_mispredicts.as_ref().unwrap().values().sum();
        let sum_exec: u64 = r.per_branch_executions.as_ref().unwrap().values().sum();
        assert_eq!(sum_mis, r.mispredictions);
        assert_eq!(sum_exec, r.conditional_branches);
    }

    #[test]
    fn provider_counts_cover_all_predictions() {
        let trace = WorkloadSpec::named(Workload::Kafka).with_branches(8_000).generate();
        let r = SimConfig::default().run(PredictorKind::Tsl64K, &trace);
        let total: u64 = r.provider_counts.values().sum();
        assert_eq!(total, r.conditional_branches);
    }

    #[test]
    fn determinism_across_runs() {
        let trace = WorkloadSpec::named(Workload::Twitter).with_branches(6_000).generate();
        let a = SimConfig::default().run(PredictorKind::Tsl64K, &trace);
        let b = SimConfig::default().run(PredictorKind::Tsl64K, &trace);
        assert_eq!(a.mispredictions, b.mispredictions);
    }

    #[test]
    fn cancelled_runs_return_timeout_not_a_result() {
        let trace = WorkloadSpec::named(Workload::Http).with_branches(5_000).generate();
        let token = CancelToken::manual();
        token.cancel();
        let err = SimConfig::default()
            .run_cancellable(PredictorKind::Tsl64K, &trace, &token)
            .expect_err("a pre-cancelled token must abort the run");
        assert_eq!(err.class(), "timeout");

        // An inert token runs to completion with the identical result.
        let plain = SimConfig::default().run(PredictorKind::Tsl64K, &trace);
        let tokened = SimConfig::default()
            .run_cancellable(PredictorKind::Tsl64K, &trace, &CancelToken::none())
            .expect("inert token never cancels");
        assert_eq!(plain, tokened);
    }

    #[test]
    fn cancellation_is_honored_within_one_block() {
        // A token that is already cancelled must stop the run at the first
        // block boundary: the error surfaces and no more than one block of
        // progress is ever reported.
        let trace = WorkloadSpec::named(Workload::Tomcat).with_branches(3 * SIM_BLOCK).generate();
        let token = CancelToken::manual();
        token.cancel();
        let telemetry = llbp_obs::Telemetry::enabled();
        let progress = telemetry.counter("sim_records_total");
        let result =
            SimConfig::default().run_observed(PredictorKind::Tsl64K, &trace, &token, &progress);
        assert!(result.is_err(), "the loop ignored a cancelled token");
        assert!(
            progress.get() <= SIM_BLOCK as u64,
            "the loop ran {} records past a cancelled token",
            progress.get(),
        );
    }

    #[test]
    fn progress_counter_reports_exactly_the_trace_length() {
        // Progress is reported per block, so the trailing partial block
        // must be counted too. Cover a sub-block trace, an exact block,
        // and a multi-block trace with a tail.
        for len in [100, SIM_BLOCK, 2 * SIM_BLOCK + 77] {
            let trace = WorkloadSpec::named(Workload::Http).with_branches(len).generate();
            let telemetry = llbp_obs::Telemetry::enabled();
            let counter = telemetry.counter("sim_records_total");
            SimConfig::default()
                .run_observed(PredictorKind::Tsl64K, &trace, &CancelToken::none(), &counter)
                .expect("inert token never cancels");
            assert_eq!(counter.get(), trace.len() as u64, "len={len}");
        }
    }

    #[test]
    fn meta_masks_match_record_encoding() {
        use llbp_trace::{BranchKind, BranchRecord};
        let cond = BranchRecord::conditional(0x40, 0x80, true, 5);
        assert_eq!(cond.packed_meta() & META_KIND_MASK, META_COND);
        assert_eq!(cond.packed_meta() & META_TAKEN_BIT != 0, cond.taken());
        assert_eq!(u64::from(cond.packed_meta() >> 4) + 1, cond.instructions());
        let ret = BranchRecord::unconditional(0x40, 0x80, BranchKind::Return, 5);
        assert_ne!(ret.packed_meta() & META_KIND_MASK, META_COND);
    }

    #[test]
    fn mpki_reduction_math() {
        let mk = |mis: u64| SimResult {
            label: "x".into(),
            workload: "w".into(),
            instructions: 1000,
            conditional_branches: 100,
            mispredictions: mis,
            provider_counts: FastHashMap::default(),
            per_branch_mispredicts: None,
            per_branch_executions: None,
            llbp: None,
        };
        let base = mk(100);
        let better = mk(80);
        assert!((better.mpki_reduction_vs(&base) - 20.0).abs() < 1e-9);
    }
}
