//! The TAGE-SC-L composition: core TAGE, statistical corrector and loop
//! predictor, arbitrated as in CBP-5.

use crate::config::TslConfig;
use crate::loop_pred::{LoopLookup, LoopPredictor};
use crate::predictor::{PredictionInfo, Predictor, ProviderKind};
use crate::sc::{ScLookup, StatisticalCorrector};
use crate::tage::{history_bit, Tage, TageLookup, UpdateMode};
use bputil::history::HistoryBuffer;
use llbp_trace::BranchRecord;

/// Everything computed during a TAGE-SC-L lookup.
#[derive(Debug, Clone, Copy)]
pub struct TslLookup {
    /// The core TAGE lookup (LLBP arbitrates against its history length).
    pub tage: TageLookup,
    /// The statistical corrector's view of the *used* datapath, when SC
    /// is enabled.
    pub sc: Option<ScLookup>,
    /// The loop predictor's view, when enabled.
    pub loop_lookup: Option<LoopLookup>,
    /// Final direction of the composition.
    pub pred: bool,
    /// What the composition would have predicted *without* an injected
    /// TAGE replacement (equals `pred` when nothing was injected). Used
    /// to attribute good/bad overrides (Fig. 15).
    pub baseline_pred: bool,
    /// Which component provided the final direction.
    pub provider: ProviderKind,
}

impl TslLookup {
    /// Provenance record of this lookup. The LLBP fields stay at their
    /// defaults; the composite predictor in `crates/core` fills them in
    /// when it wraps this lookup.
    #[must_use]
    pub fn prediction_info(&self) -> PredictionInfo {
        PredictionInfo {
            pred: self.pred,
            baseline_pred: self.baseline_pred,
            provider: self.provider,
            tage_hit: self.tage.provider.is_some(),
            provider_pred: self.tage.provider_pred,
            provider_weak: self.tage.provider_weak,
            alt_pred: self.tage.alt_pred,
            used_alt: self.tage.used_alt,
            provider_hist_len: self.tage.provider_hist_len.min(u16::MAX as usize) as u16,
            ..PredictionInfo::default()
        }
    }
}

/// The full TAGE-SC-L predictor (the paper's `64K TSL` baseline and its
/// scaled/infinite variants, depending on [`TslConfig`]).
#[derive(Debug, Clone)]
pub struct TageScl {
    tage: Tage,
    sc: Option<StatisticalCorrector>,
    loop_pred: Option<LoopPredictor>,
    cfg: TslConfig,
    predictions: u64,
}

impl TageScl {
    /// Builds the composition from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TslConfig::validate`].
    #[must_use]
    pub fn new(cfg: TslConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid TSL config: {e}"));
        let tage = Tage::new(cfg.tage.clone());
        let sc = cfg
            .sc_enabled
            .then(|| StatisticalCorrector::new(cfg.sc_index_bits, &cfg.sc_history_lengths));
        let loop_pred = cfg.loop_enabled.then(|| LoopPredictor::new(cfg.loop_index_bits));
        Self { tage, sc, loop_pred, cfg, predictions: 0 }
    }

    /// The configuration this instance was built from.
    #[must_use]
    pub fn config(&self) -> &TslConfig {
        &self.cfg
    }

    /// Access to the core TAGE (for probes and LLBP composition).
    #[must_use]
    pub fn tage(&self) -> &Tage {
        &self.tage
    }

    /// The shared global history buffer.
    #[must_use]
    pub fn ghr(&self) -> &HistoryBuffer {
        self.tage.ghr()
    }

    /// Performs a full lookup without committing any state (except loop
    /// predictor engagement statistics).
    pub fn lookup(&mut self, pc: u64) -> TslLookup {
        let tage = self.tage.lookup(pc);
        self.finish_lookup(pc, tage, None)
    }

    /// Completes a lookup from a pre-computed TAGE stage, optionally
    /// *replacing* TAGE's direction with `inject` before the statistical
    /// corrector and loop predictor apply — the composition point LLBP
    /// uses (§V-B, footnote 2: LLBP overrides TAGE, and the auxiliary
    /// correctors then operate on the combined prediction).
    pub fn finish_lookup(&mut self, pc: u64, tage: TageLookup, inject: Option<bool>) -> TslLookup {
        let injected_dir = inject.unwrap_or(tage.pred);
        let mut pred = injected_dir;
        let mut baseline = tage.pred;
        let mut provider = if inject.is_some() {
            ProviderKind::Llbp
        } else {
            match tage.provider {
                Some(t) if !tage.used_alt => ProviderKind::Tage { table: t },
                Some(_) => tage
                    .alt_table
                    .map_or(ProviderKind::Bimodal, |t| ProviderKind::Tage { table: t }),
                None => ProviderKind::Bimodal,
            }
        };

        let sc = self.sc.as_mut().map(|s| {
            // The real datapath corrects the (possibly injected) direction;
            // the baseline path is re-derived for attribution only, and
            // only its direction-dependent bias component differs.
            let l = s.lookup(pc, pred);
            let corrected = s.arbitrate(&l, pred);
            if corrected != pred {
                provider = ProviderKind::StatisticalCorrector;
                pred = corrected;
            }
            if inject.is_some() {
                let lb = s.relookup(&l, pc, baseline);
                if lb.confident && lb.pred != baseline {
                    baseline = lb.pred;
                }
            } else {
                baseline = pred;
            }
            l
        });

        let loop_lookup = self.loop_pred.as_mut().map(|lp| {
            let l = lp.lookup(pc);
            if let Some(p) = l.pred {
                if p != pred {
                    provider = ProviderKind::Loop;
                }
                pred = p;
                baseline = p;
            }
            l
        });

        TslLookup { tage, sc, loop_lookup, pred, baseline_pred: baseline, provider }
    }

    /// The core TAGE stage only (pure); combine with
    /// [`TageScl::finish_lookup`].
    #[must_use]
    pub fn lookup_tage(&self, pc: u64) -> TageLookup {
        self.tage.lookup(pc)
    }

    /// Trains all components with the resolved direction.
    ///
    /// With [`UpdateMode::Cancelled`] (LLBP overrode the baseline), the
    /// core TAGE cancels its update per §V-D; the SC and loop predictor
    /// still observe the outcome — they are outcome-trained side tables
    /// whose state LLBP does not replicate.
    pub fn commit(&mut self, lookup: &TslLookup, taken: bool, mode: UpdateMode) {
        if let (Some(lp), Some(ll)) = (&mut self.loop_pred, &lookup.loop_lookup) {
            lp.train(ll, taken, lookup.tage.pred, lookup.tage.pred != taken);
        }
        if let (Some(sc), Some(sl)) = (&mut self.sc, &lookup.sc) {
            sc.train(sl, taken);
        }
        self.tage.commit(&lookup.tage, taken, mode);
    }

    /// Advances histories for a retired branch of any kind.
    pub fn update_history(&mut self, record: &BranchRecord) {
        if let Some(sc) = &mut self.sc {
            sc.update_history(self.tage.ghr(), history_bit(record));
        }
        self.tage.update_history(record);
    }

    /// Adds a folded register over the shared global history to the core
    /// TAGE's bank ([`Tage::register_fold`]); read it through
    /// [`TageScl::tage`]. It advances and checkpoints with TAGE's own.
    pub fn register_fold(&mut self, window: usize, width: u32) -> usize {
        self.tage.register_fold(window, width)
    }

    /// Conditional branch predictions made so far.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Captures all speculative history state across TAGE and the SC
    /// (§V-E2). Prediction tables train at commit and are not included.
    #[must_use]
    pub fn checkpoint(&self) -> TslCheckpoint {
        TslCheckpoint {
            tage: self.tage.checkpoint(),
            sc: self.sc.as_ref().map(StatisticalCorrector::checkpoint),
        }
    }

    /// Restores a checkpoint taken by [`TageScl::checkpoint`].
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a different configuration.
    pub fn restore(&mut self, checkpoint: &TslCheckpoint) {
        self.tage.restore(&checkpoint.tage);
        match (&mut self.sc, &checkpoint.sc) {
            (Some(sc), Some(cp)) => sc.restore(cp),
            (None, None) => {}
            _ => panic!("checkpoint SC presence does not match configuration"),
        }
    }
}

/// A snapshot of TAGE-SC-L's speculative history state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TslCheckpoint {
    tage: crate::tage::TageCheckpoint,
    sc: Option<Vec<u32>>,
}

impl Predictor for TageScl {
    fn step(&mut self, pc: u64, taken: bool) -> PredictionInfo {
        let lookup = self.lookup(pc);
        self.predictions += 1;
        self.commit(&lookup, taken, UpdateMode::Full);
        lookup.prediction_info()
    }

    fn update_history(&mut self, record: &BranchRecord) {
        TageScl::update_history(self, record);
    }

    fn label(&self) -> &str {
        &self.cfg.label
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TslConfig;
    use llbp_trace::{BranchKind, Workload, WorkloadSpec};

    /// Runs a workload through a predictor and returns MPKI.
    fn mpki(cfg: TslConfig, workload: Workload, branches: usize) -> f64 {
        let trace = WorkloadSpec::named(workload).with_branches(branches).generate();
        let mut p = TageScl::new(cfg);
        let mut mispredicts = 0u64;
        for r in &trace {
            if r.kind() == BranchKind::Conditional {
                let l = p.lookup(r.pc());
                if l.pred != r.taken() {
                    mispredicts += 1;
                }
                p.commit(&l, r.taken(), UpdateMode::Full);
            }
            TageScl::update_history(&mut p, r);
        }
        mispredicts as f64 * 1000.0 / trace.instructions() as f64
    }

    #[test]
    fn baseline_predicts_far_better_than_chance() {
        let trace = WorkloadSpec::named(Workload::Http).with_branches(50_000).generate();
        let mut p = TageScl::new(TslConfig::cbp64k());
        let mut mispredicts = 0u64;
        let mut conds = 0u64;
        for r in &trace {
            if r.kind() == BranchKind::Conditional {
                conds += 1;
                if p.step(r.pc(), r.taken()).pred != r.taken() {
                    mispredicts += 1;
                }
            }
            Predictor::update_history(&mut p, r);
        }
        // Even warming up on a short trace the predictor must beat a
        // static guess by a wide margin (the workload's taken rate is
        // ≈0.5, so chance is ≈0.5).
        let rate = mispredicts as f64 / conds as f64;
        assert!(rate < 0.25, "misprediction rate {rate:.3} too high");
    }

    #[test]
    fn infinite_beats_baseline() {
        let base = mpki(TslConfig::cbp64k(), Workload::NodeApp, 120_000);
        let inf = mpki(TslConfig::infinite_tage(), Workload::NodeApp, 120_000);
        assert!(inf < base, "Inf TAGE ({inf:.3} MPKI) should beat 64K TSL ({base:.3} MPKI)");
    }

    #[test]
    fn scaled_beats_baseline() {
        let base = mpki(TslConfig::cbp64k(), Workload::Tpcc, 120_000);
        let big = mpki(TslConfig::scaled(8), Workload::Tpcc, 120_000);
        assert!(big < base, "512K TSL ({big:.3} MPKI) should beat 64K TSL ({base:.3} MPKI)");
    }

    #[test]
    fn provider_is_reported() {
        let mut p = TageScl::new(TslConfig::cbp64k());
        // Fresh predictor: bimodal provides.
        assert_eq!(p.step(0x1000, true).provider, ProviderKind::Bimodal);
        assert_eq!(p.predictions(), 1);
    }

    #[test]
    fn label_and_storage() {
        let p = TageScl::new(TslConfig::cbp64k());
        assert_eq!(p.label(), "64K TSL");
        assert!(p.storage_bits() > 0);
    }
}
