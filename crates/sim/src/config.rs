//! Simulation configuration and the predictor factory.

use crate::driver::{LlbpCellStats, SimResult, Simulation};
use crate::error::{CancelToken, SimError};
use llbp_core::{LlbpParams, LlbpPredictor};
use llbp_prov::ProvRecorder;
use llbp_tage::classic::{Gshare, HashedPerceptron, TwoLevelLocal};
use llbp_tage::{Predictor, TageScl, TslConfig};
use llbp_trace::Trace;

/// Which predictor design to simulate — the paper's §VI model list.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorKind {
    /// The 64 KiB TAGE-SC-L baseline (`64K TSL`).
    Tsl64K,
    /// TSL with TAGE tables scaled by a power-of-two factor
    /// (`128K/256K/512K/1M TSL`).
    TslScaled(u32),
    /// Unbounded TAGE tables, baseline auxiliary components (`Inf TAGE`).
    InfTage,
    /// Unbounded TAGE tables and enlarged auxiliaries (`Inf TSL`).
    InfTsl,
    /// The Last-Level Branch Predictor over a 64K TSL baseline.
    Llbp(LlbpParams),
    /// Any custom TSL configuration.
    CustomTsl(TslConfig),
    /// Classic gshare with `2^index_bits` counters (historical baseline).
    Gshare {
        /// log2 entries of the counter table.
        index_bits: u32,
        /// Global history bits XORed into the index.
        history_bits: u32,
    },
    /// Classic two-level local-history predictor (PAg flavour).
    TwoLevelLocal {
        /// log2 entries of the per-branch history table.
        bht_bits: u32,
        /// Local history register width / log2 pattern-table entries.
        local_bits: u32,
    },
    /// Hashed perceptron (historical baseline).
    HashedPerceptron {
        /// Number of weight tables.
        tables: usize,
        /// log2 entries per weight table.
        index_bits: u32,
        /// History bits hashed per table segment.
        segment_bits: u32,
    },
}

impl PredictorKind {
    /// Report label of the built predictor.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PredictorKind::Tsl64K => "64K TSL".into(),
            PredictorKind::TslScaled(f) => format!("{}K TSL", 64 * f),
            PredictorKind::InfTage => "Inf TAGE".into(),
            PredictorKind::InfTsl => "Inf TSL".into(),
            PredictorKind::Llbp(p) => p.label.clone(),
            PredictorKind::CustomTsl(cfg) => cfg.label.clone(),
            PredictorKind::Gshare { index_bits, .. } => format!("gshare-{index_bits}b"),
            PredictorKind::TwoLevelLocal { bht_bits, local_bits } => {
                format!("2level-{bht_bits}x{local_bits}")
            }
            PredictorKind::HashedPerceptron { tables, index_bits, .. } => {
                format!("perceptron-{tables}x{index_bits}b")
            }
        }
    }

    /// A stable string describing this predictor for cache fingerprinting:
    /// the `Debug` form, which covers every configuration field.
    #[must_use]
    pub fn fingerprint_text(&self) -> String {
        format!("{self:?}")
    }
}

/// Simulation parameters (warmup split, probes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Fraction of records used as warmup: statistics are collected only
    /// after this point (the paper warms 100M of 300M instructions).
    pub warmup_fraction: f64,
    /// Record per-static-branch misprediction counts (Fig. 3 probes).
    pub track_per_branch: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { warmup_fraction: 1.0 / 3.0, track_per_branch: false }
    }
}

impl SimConfig {
    /// Runs `kind` over `trace` and returns the measured result.
    ///
    /// For LLBP designs the result additionally carries the predictor's
    /// internal statistics ([`SimResult::llbp`]) so bandwidth/energy/
    /// breakdown analyses can run through the sweep engine.
    #[must_use]
    pub fn run(&self, kind: PredictorKind, trace: &Trace) -> SimResult {
        match self.run_cancellable(kind, trace, &CancelToken::none()) {
            Ok(result) => result,
            Err(_) => unreachable!("a no-op cancel token never fires"),
        }
    }

    /// [`SimConfig::run`] under a cooperative [`CancelToken`]: the sweep
    /// engine's watchdog path, where a hung cell must abandon itself at
    /// the token's deadline instead of stalling the whole campaign. The
    /// loop polls the token every [`crate::SIM_BLOCK`] records.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the token fires mid-run.
    pub fn run_cancellable(
        &self,
        kind: PredictorKind,
        trace: &Trace,
        token: &CancelToken,
    ) -> Result<SimResult, SimError> {
        self.run_observed(kind, trace, token, &llbp_obs::Counter::noop())
    }

    /// [`SimConfig::run_cancellable`] with a progress counter, bumped by
    /// each block's record count (pass [`llbp_obs::Counter::noop`] when
    /// telemetry is off). A completed run reports exactly [`Trace::len`]
    /// records.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the token fires mid-run.
    pub fn run_observed(
        &self,
        kind: PredictorKind,
        trace: &Trace,
        token: &CancelToken,
        records: &llbp_obs::Counter,
    ) -> Result<SimResult, SimError> {
        self.run_recorded(kind, trace, token, records, &mut ProvRecorder::disabled())
    }

    /// [`SimConfig::run_observed`] with a provenance recorder: every
    /// *measured* conditional branch is offered to `prov` together with
    /// the predictor's [`llbp_tage::PredictionInfo`]. Recording is
    /// observational — a disabled recorder and an enabled one produce the
    /// same result.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the token fires mid-run.
    pub fn run_recorded(
        &self,
        kind: PredictorKind,
        trace: &Trace,
        token: &CancelToken,
        records: &llbp_obs::Counter,
        prov: &mut ProvRecorder,
    ) -> Result<SimResult, SimError> {
        // One arm per predictor type, each its own instantiation of the
        // loop, so `step` and `update_history` dispatch statically.
        let sim = Simulation { cfg: self, trace, token, progress: records, prov };
        match kind {
            PredictorKind::Tsl64K => sim.run(&mut TageScl::new(TslConfig::cbp64k())),
            PredictorKind::TslScaled(f) => sim.run(&mut TageScl::new(TslConfig::scaled(f))),
            PredictorKind::InfTage => sim.run(&mut TageScl::new(TslConfig::infinite_tage())),
            PredictorKind::InfTsl => sim.run(&mut TageScl::new(TslConfig::infinite_tsl())),
            PredictorKind::CustomTsl(cfg) => sim.run(&mut TageScl::new(cfg)),
            PredictorKind::Gshare { index_bits, history_bits } => {
                sim.run(&mut Gshare::new(index_bits, history_bits))
            }
            PredictorKind::TwoLevelLocal { bht_bits, local_bits } => {
                sim.run(&mut TwoLevelLocal::new(bht_bits, local_bits))
            }
            PredictorKind::HashedPerceptron { tables, index_bits, segment_bits } => {
                sim.run(&mut HashedPerceptron::new(tables, index_bits, segment_bits))
            }
            PredictorKind::Llbp(params) => {
                let mut predictor = LlbpPredictor::new(params);
                let result = sim.run(&mut predictor)?;
                let llbp = LlbpCellStats {
                    llbp: predictor.stats().clone(),
                    frontend: *predictor.frontend().stats(),
                };
                Ok(SimResult { llbp: Some(llbp), ..result })
            }
        }
    }

    /// Runs a pre-built predictor through the same loop (for custom
    /// predictors, and for callers that inspect its internal state
    /// afterwards, e.g. LLBP statistics). [`SimResult::llbp`] stays
    /// `None`: the loop cannot see a predictor's internals.
    #[must_use]
    pub fn run_predictor(&self, predictor: &mut dyn Predictor, trace: &Trace) -> SimResult {
        let sim = Simulation {
            cfg: self,
            trace,
            token: &CancelToken::none(),
            progress: &llbp_obs::Counter::noop(),
            prov: &mut ProvRecorder::disabled(),
        };
        match sim.run(predictor) {
            Ok(result) => result,
            Err(_) => unreachable!("a no-op cancel token never fires"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_trace::{Workload, WorkloadSpec};

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(PredictorKind::Tsl64K.label(), "64K TSL");
        assert_eq!(PredictorKind::TslScaled(8).label(), "512K TSL");
        assert_eq!(PredictorKind::InfTsl.label(), "Inf TSL");
        assert_eq!(PredictorKind::Llbp(LlbpParams::default()).label(), "LLBP");
    }

    #[test]
    fn debug_form_is_stable() {
        // Memo cells are keyed by the `Debug` form; changing it orphans
        // every cached cell.
        assert_eq!(
            format!("{:?}", SimConfig::default()),
            "SimConfig { warmup_fraction: 0.3333333333333333, track_per_branch: false }"
        );
    }

    #[test]
    fn run_produces_consistent_result() {
        let trace = WorkloadSpec::named(Workload::Http).with_branches(5_000).generate();
        let r = SimConfig::default().run(PredictorKind::Tsl64K, &trace);
        assert!(r.conditional_branches > 0);
        assert!(r.mispredictions <= r.conditional_branches);
        assert!(r.mpki() >= 0.0);
    }
}
