//! The driving interface shared by every predictor under study.

use llbp_trace::BranchRecord;

/// Which component supplied the final direction of a prediction.
///
/// Used by the simulator to attribute predictions (e.g. the paper's
/// statistic that 49% of predictions come from the bimodal table, §VII-G).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProviderKind {
    /// The bimodal base table.
    Bimodal,
    /// A tagged TAGE table (with its index).
    Tage {
        /// Index of the providing tagged table (0 = shortest history).
        table: usize,
    },
    /// The statistical corrector overrode TAGE.
    StatisticalCorrector,
    /// The loop predictor overrode.
    Loop,
    /// LLBP overrode the baseline predictor.
    Llbp,
}

impl ProviderKind {
    /// Number of distinct providers (the length of
    /// [`ProviderKind::LABELS`] and the exclusive upper bound of
    /// [`ProviderKind::ordinal`]).
    pub const COUNT: usize = 5;

    /// Report labels in [`ProviderKind::ordinal`] order — the single
    /// source of truth for the label↔ordinal mapping. The simulator's
    /// per-provider counting arrays, the report maps, and the memo-store
    /// deserializer all derive from this table, so a new provider only
    /// has to be added here and in `ordinal` (where a missing arm is a
    /// compile error).
    pub const LABELS: [&'static str; Self::COUNT] = ["bim", "tage", "sc", "loop", "llbp"];

    /// Dense index of this provider, in `0..ProviderKind::COUNT`.
    #[must_use]
    pub fn ordinal(self) -> usize {
        match self {
            ProviderKind::Bimodal => 0,
            ProviderKind::Tage { .. } => 1,
            ProviderKind::StatisticalCorrector => 2,
            ProviderKind::Loop => 3,
            ProviderKind::Llbp => 4,
        }
    }

    /// Short label for reports, derived from [`ProviderKind::LABELS`].
    #[must_use]
    pub fn label(self) -> &'static str {
        Self::LABELS[self.ordinal()]
    }

    /// Maps a label back to its interned `&'static str` from
    /// [`ProviderKind::LABELS`] (deserializers must key report maps with
    /// the same statics the simulator uses). Unknown labels return
    /// `None`, which readers treat as data from an incompatible version.
    #[must_use]
    pub fn intern_label(label: &str) -> Option<&'static str> {
        Self::LABELS.iter().find(|&&l| l == label).copied()
    }
}

/// Everything a predictor can say about how one prediction was formed —
/// the provenance record [`Predictor::step`] returns.
///
/// This is the unit the `llbp-prov` side-stream captures: which
/// component provided, whether the providing counter was weak, what the
/// alternate and baseline predictions were, and (for composite
/// predictors) whether LLBP hit and overrode. Predictors that track
/// less detail leave the extra fields at their defaults; the only
/// fields every implementation must fill are `pred` and `provider`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictionInfo {
    /// Final predicted direction.
    pub pred: bool,
    /// What the baseline (pre-override) predictor said. Equal to `pred`
    /// for non-composite predictors.
    pub baseline_pred: bool,
    /// Component that supplied the final direction.
    pub provider: ProviderKind,
    /// A tagged TAGE table hit (`provider` may still be bimodal if the
    /// alternate prediction was used or a corrector overrode).
    pub tage_hit: bool,
    /// Direction of the providing TAGE component counter.
    pub provider_pred: bool,
    /// The providing counter was weak (newly allocated / low confidence).
    pub provider_weak: bool,
    /// Direction of the alternate prediction (next-longest hit or bimodal).
    pub alt_pred: bool,
    /// The alternate prediction was chosen over the provider.
    pub used_alt: bool,
    /// Geometric history length of the providing table (0 = bimodal).
    pub provider_hist_len: u16,
    /// LLBP matched a pattern for this branch's context.
    pub llbp_hit: bool,
    /// Direction LLBP predicted (meaningful only when `llbp_hit`).
    pub llbp_pred: bool,
    /// The matching LLBP counter was weak.
    pub llbp_weak: bool,
    /// LLBP's prediction replaced the baseline's.
    pub llbp_override: bool,
    /// History length of the matching LLBP pattern (0 = no hit).
    pub llbp_hist_len: u16,
}

impl Default for PredictionInfo {
    fn default() -> Self {
        PredictionInfo {
            pred: false,
            baseline_pred: false,
            provider: ProviderKind::Bimodal,
            tage_hit: false,
            provider_pred: false,
            provider_weak: false,
            alt_pred: false,
            used_alt: false,
            provider_hist_len: 0,
            llbp_hit: false,
            llbp_pred: false,
            llbp_weak: false,
            llbp_override: false,
            llbp_hist_len: 0,
        }
    }
}

impl PredictionInfo {
    /// Minimal record for predictors that only track their provider:
    /// the final direction stands in for every component direction.
    #[must_use]
    pub fn from_provider(pred: bool, provider: ProviderKind) -> Self {
        PredictionInfo {
            pred,
            baseline_pred: pred,
            provider,
            provider_pred: pred,
            alt_pred: pred,
            ..PredictionInfo::default()
        }
    }

    /// Index of the providing tagged table, 0 for every other provider.
    #[must_use]
    pub fn provider_table(&self) -> u8 {
        match self.provider {
            ProviderKind::Tage { table } => table.min(u8::MAX as usize) as u8,
            _ => 0,
        }
    }
}

/// A trace-driven conditional branch direction predictor.
///
/// The driving protocol, per retired branch record:
///
/// 1. For conditional branches: call [`Predictor::step`] with the
///    resolved direction. The predictor predicts first, then trains with
///    the outcome, and reports how the prediction was formed.
/// 2. For **every** branch (conditional or not): call
///    [`Predictor::update_history`] afterwards, so global/path histories
///    and context registers advance.
///
/// This is the CBP simulation loop: a trace-driven simulator knows each
/// outcome when it asks for the prediction, so lookup and training fuse
/// into one call and no per-branch state outlives it.
pub trait Predictor {
    /// Predicts the conditional branch at `pc`, then trains with its
    /// resolved direction `taken`. The prediction must not depend on
    /// `taken`; `info.pred` is the predicted direction and `info.provider`
    /// the component that supplied it.
    fn step(&mut self, pc: u64, taken: bool) -> PredictionInfo;

    /// Observes a retired branch of any kind, updating histories.
    fn update_history(&mut self, record: &BranchRecord);

    /// Human-readable configuration label (e.g. `"64K TSL"`).
    fn label(&self) -> &str;

    /// Nominal storage budget in bits (finite-geometry equivalent).
    fn storage_bits(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_labels() {
        assert_eq!(ProviderKind::Bimodal.label(), "bim");
        assert_eq!(ProviderKind::Tage { table: 3 }.label(), "tage");
        assert_eq!(ProviderKind::Llbp.label(), "llbp");
    }

    #[test]
    fn minimal_info_mirrors_the_final_direction() {
        let info = PredictionInfo::from_provider(true, ProviderKind::Tage { table: 7 });
        assert!(info.pred && info.baseline_pred && info.provider_pred && info.alt_pred);
        assert!(!info.llbp_hit && !info.llbp_override);
        assert_eq!(info.provider_table(), 7);
        assert_eq!(PredictionInfo::from_provider(false, ProviderKind::Bimodal).provider_table(), 0);
    }

    #[test]
    fn ordinal_label_roundtrip() {
        let all = [
            ProviderKind::Bimodal,
            ProviderKind::Tage { table: 0 },
            ProviderKind::StatisticalCorrector,
            ProviderKind::Loop,
            ProviderKind::Llbp,
        ];
        assert_eq!(all.len(), ProviderKind::COUNT);
        for (i, kind) in all.into_iter().enumerate() {
            assert_eq!(kind.ordinal(), i, "ordinals must be dense and in LABELS order");
            assert_eq!(ProviderKind::LABELS[kind.ordinal()], kind.label());
            assert_eq!(ProviderKind::intern_label(kind.label()), Some(kind.label()));
        }
        assert_eq!(ProviderKind::intern_label("nope"), None);
    }
}
