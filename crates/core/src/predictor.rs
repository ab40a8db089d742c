//! The composed LLBP + TAGE-SC-L predictor (§V).
//!
//! Data flow per predicted branch:
//!
//! 1. The backing TAGE-SC-L performs its normal lookup.
//! 2. In parallel, the pattern buffer (PB) is probed with the current
//!    context ID; a resident pattern set is matched against the 16
//!    per-length tag hashes and the longest match wins.
//! 3. A 6-bit length comparison arbitrates: LLBP overrides the baseline
//!    when its matching history is at least as long as TAGE's provider.
//! 4. At resolution, only the providing side trains (TAGE cancels its
//!    update when LLBP provided); a misprediction by the provider
//!    allocates a longer-history pattern into the context's set.
//!
//! Prefetching: every observed context branch advances the RCR, looks the
//! *upcoming* context up in the context directory, and — on a hit — pulls
//! its pattern set into the PB with the configured delay. Pipeline resets
//! (own mispredictions and indirect-branch target changes) squash
//! in-flight prefetches.

use crate::params::{CancelPolicy, LlbpParams, MAX_LENGTHS};
use crate::pattern::PatternSet;
use crate::prefetch::PrefetchQueue;
use crate::rcr::RollingContextRegister;
use crate::stats::{LlbpStats, OverrideKind};
use bputil::table::SetAssoc;
use llbp_tage::tage::UpdateMode;
use llbp_tage::{FrontEnd, PredictionInfo, Predictor, TageScl};
use llbp_trace::BranchRecord;

/// A pattern set resident in the pattern buffer.
#[derive(Debug, Clone)]
struct PbEntry {
    set: PatternSet,
    dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct LlbpMatch {
    slot: usize,
    pred: bool,
    weak: bool,
    hist_len: usize,
}

/// A snapshot of the composed predictor's speculative history state
/// (§V-E2 rollback support). LLBP's pattern folds live in the backing
/// TAGE's fold bank, so the baseline's checkpoint covers them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlbpCheckpoint {
    tsl: llbp_tage::TslCheckpoint,
    rcr: crate::rcr::RcrCheckpoint,
}

/// The Last-Level Branch Predictor backing a TAGE-SC-L baseline.
#[derive(Debug)]
pub struct LlbpPredictor {
    params: LlbpParams,
    tsl: TageScl,
    rcr: RollingContextRegister,
    /// Per history length: the registers of its two tag folds in the
    /// backing TAGE's fold bank.
    tag_folds: Vec<[usize; 2]>,
    /// Unified context directory + bulk pattern-set storage.
    storage: SetAssoc<PatternSet>,
    /// The in-core pattern buffer.
    pb: SetAssoc<PbEntry>,
    prefetches: PrefetchQueue,
    /// Front-end target predictors (BTB/RAS/ITTAGE): their late redirects
    /// are the non-direction pipeline resets that squash prefetches.
    frontend: FrontEnd,
    instructions: u64,
    stats: LlbpStats,
    /// Runtime power gate (§V): `false` turns the LLBP side off.
    llbp_enabled: bool,
}

impl LlbpPredictor {
    /// Builds the composed predictor from validated parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`LlbpParams::validate`].
    #[must_use]
    pub fn new(params: LlbpParams) -> Self {
        params.validate().unwrap_or_else(|e| panic!("invalid LLBP params: {e}"));
        let mut tsl = TageScl::new(params.tsl.clone());
        let rcr = RollingContextRegister::new(
            params.window,
            params.prefetch_distance,
            params.cid_bits,
            params.history_kind,
        );
        // The pattern folds are registered in the backing TAGE's bank:
        // TAGE's history update advances them, and shapes TAGE already
        // folds (its 13/12-bit tag folds) or that repeat are shared.
        let tag_folds = params
            .history_lengths
            .iter()
            .map(|&l| {
                [
                    tsl.register_fold(l, params.tag_bits),
                    tsl.register_fold(l, (params.tag_bits - 1).max(1)),
                ]
            })
            .collect();
        let storage = SetAssoc::new(params.cd_index_bits, params.cd_ways);
        let pb = SetAssoc::new(params.pb_index_bits, params.pb_ways);
        Self {
            tsl,
            rcr,
            tag_folds,
            storage,
            pb,
            prefetches: PrefetchQueue::new(),
            frontend: FrontEnd::new(),
            instructions: 0,
            stats: LlbpStats::default(),
            llbp_enabled: true,
            params,
        }
    }

    /// The parameters this instance was built from.
    #[must_use]
    pub fn params(&self) -> &LlbpParams {
        &self.params
    }

    /// The backing TAGE-SC-L (for probes).
    #[must_use]
    pub fn baseline(&self) -> &TageScl {
        &self.tsl
    }

    /// Aggregated LLBP statistics.
    #[must_use]
    pub fn stats(&self) -> &LlbpStats {
        &self.stats
    }

    /// The front-end target predictors (for probes).
    #[must_use]
    pub fn frontend(&self) -> &FrontEnd {
        &self.frontend
    }

    /// Enables or disables the LLBP side at runtime (§V: "when the
    /// accuracy of TAGE is sufficiently high, LLBP can be disabled to
    /// save power"). While disabled, predictions come solely from the
    /// baseline, and no prefetches, CD lookups or pattern transfers
    /// occur; histories keep advancing so re-enabling is seamless.
    pub fn set_llbp_enabled(&mut self, enabled: bool) {
        self.llbp_enabled = enabled;
        if !enabled {
            self.prefetches.squash();
        }
    }

    /// Whether the LLBP side is currently active.
    #[must_use]
    pub fn llbp_enabled(&self) -> bool {
        self.llbp_enabled
    }

    /// Captures all speculative history state: the baseline's checkpoint,
    /// which includes LLBP's folded pattern histories, plus the RCR
    /// (§V-E2: "Rolling back the RCR can be done in the same way as for
    /// the folded history registers in TAGE").
    #[must_use]
    pub fn checkpoint(&self) -> LlbpCheckpoint {
        LlbpCheckpoint { tsl: self.tsl.checkpoint(), rcr: self.rcr.checkpoint() }
    }

    /// Restores a checkpoint taken by [`LlbpPredictor::checkpoint`],
    /// rolling back every speculative history update made since (pattern
    /// sets train at commit and are unaffected). In-flight prefetches are
    /// squashed, as the hardware does on the triggering misprediction.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a different configuration.
    pub fn restore(&mut self, checkpoint: &LlbpCheckpoint) {
        self.tsl.restore(&checkpoint.tsl);
        self.rcr.restore(&checkpoint.rcr);
        self.prefetches.squash();
    }

    /// Current cycle under the fetch-width clock model.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.instructions / self.params.fetch_width.max(1)
    }

    fn storage_key(&self, cid: u64) -> (u64, u64) {
        (cid & ((1 << self.params.cd_index_bits) - 1), cid >> self.params.cd_index_bits)
    }

    fn pb_key(&self, cid: u64) -> (u64, u64) {
        (cid & ((1u64 << self.params.pb_index_bits) - 1), cid >> self.params.pb_index_bits)
    }

    fn empty_set(&self) -> PatternSet {
        PatternSet::new(
            self.params.patterns_per_set,
            self.params.num_buckets,
            self.params.history_lengths.len(),
        )
    }

    /// Per-length pattern tags for `pc` under the current history; the
    /// first `history_lengths.len()` entries are meaningful.
    fn pattern_tags(&self, pc: u64) -> [u32; MAX_LENGTHS] {
        let folds = self.tsl.tage().folds().values();
        let mut tags = [0u32; MAX_LENGTHS];
        for (i, (tag, &[tag0, tag1])) in tags.iter_mut().zip(&self.tag_folds).enumerate() {
            *tag = bputil::hash::tage_tag(
                pc ^ (i as u64).rotate_left(7),
                folds[tag0],
                folds[tag1],
                self.params.tag_bits,
            );
        }
        tags
    }

    /// Moves completed prefetches from storage into the PB.
    fn process_arrivals(&mut self) {
        let now = self.cycle();
        for p in self.prefetches.drain_ready(now) {
            self.fill_pb_from_storage(p.cid);
        }
    }

    /// Copies the pattern set for `cid` from storage into the PB (a
    /// 288-bit read), if present and not already resident.
    fn fill_pb_from_storage(&mut self, cid: u64) -> bool {
        let (pi, pt) = self.pb_key(cid);
        if self.pb.peek(pi, pt).is_some() {
            return true;
        }
        let (si, st) = self.storage_key(cid);
        let Some(set) = self.storage.peek(si, st).cloned() else {
            return false;
        };
        self.stats.storage_reads += 1;
        self.insert_pb(cid, PbEntry { set, dirty: false });
        true
    }

    /// Inserts into the PB, writing back any dirty victim.
    fn insert_pb(&mut self, cid: u64, entry: PbEntry) {
        let (pi, pt) = self.pb_key(cid);
        if let Some((victim_tag, victim)) = self.pb.insert_lru(pi, pt, entry) {
            if victim.dirty {
                let victim_cid = (victim_tag << self.params.pb_index_bits) | pi;
                self.write_back(victim_cid, victim.set);
            }
        }
    }

    /// Writes a dirty pattern set back to storage (a 288-bit write). If
    /// the context directory entry was replaced in the meantime, the set
    /// is dropped — that context has been evicted from LLBP.
    fn write_back(&mut self, cid: u64, set: PatternSet) {
        let (si, st) = self.storage_key(cid);
        if let Some(stored) = self.storage.get_mut(si, st) {
            *stored = set;
            self.stats.storage_writes += 1;
        }
    }

    /// §V-D step 1: ensure the current context has a pattern set resident
    /// in the PB, creating CD + storage entries if the context is new.
    /// Returns `false` only when the set exists in storage but cannot be
    /// fetched under the latency model (never happens at train time — the
    /// hardware keeps providing sets pinned in the PB; our in-order model
    /// fetches on demand and charges the read).
    fn ensure_context_in_pb(&mut self, cid: u64) {
        let (pi, pt) = self.pb_key(cid);
        if self.pb.peek(pi, pt).is_some() {
            return;
        }
        if self.fill_pb_from_storage(cid) {
            return;
        }
        // New context: create the CD/storage entry (confidence-based
        // replacement by default, §V-D) and an empty set in the PB.
        self.stats.contexts_created += 1;
        let (si, st) = self.storage_key(cid);
        let threshold = self.params.confidence_threshold;
        let empty = self.empty_set();
        match self.params.cd_replacement {
            crate::params::CdReplacement::Confidence => {
                self.storage.insert_with(si, st, empty, |ways| {
                    ways.iter()
                        .enumerate()
                        .min_by_key(|(_, (_, set))| set.confident_count(threshold))
                        .map(|(i, _)| i)
                        .unwrap_or(0)
                });
            }
            crate::params::CdReplacement::Lru => {
                self.storage.insert_lru(si, st, empty);
            }
        }
        self.insert_pb(cid, PbEntry { set: self.empty_set(), dirty: true });
    }

    /// Allocates a pattern with the first LLBP history length strictly
    /// longer than `base_len` (§V-D steps 2–4). No-op when the provider
    /// already used the longest history.
    fn allocate_pattern(&mut self, cid: u64, tags: &[u32], base_len: usize, taken: bool) {
        let Some(len_idx) = self.params.history_lengths.iter().position(|&l| l > base_len) else {
            return;
        };
        self.ensure_context_in_pb(cid);
        let (pi, pt) = self.pb_key(cid);
        let counter_bits = self.params.counter_bits;
        if let Some(entry) = self.pb.get_mut(pi, pt) {
            entry.set.allocate(len_idx as u8, tags[len_idx], taken, counter_bits);
            entry.dirty = true;
            self.stats.pattern_allocs += 1;
        }
    }

    /// A pipeline reset: squash in-flight prefetches, then restart
    /// prefetching from the recovered front-end state — the current and
    /// upcoming contexts are re-requested immediately (§VI: "all in-flight
    /// prefetches get squashed before LLBP restarts prefetching").
    fn pipeline_reset(&mut self) {
        self.stats.pipeline_resets += 1;
        self.prefetches.squash();
        let now = self.cycle();
        for cid in [self.rcr.current_cid(), self.rcr.prefetch_cid()] {
            let (pi, pt) = self.pb_key(cid);
            if self.pb.peek(pi, pt).is_some() {
                continue;
            }
            let (si, st) = self.storage_key(cid);
            if self.storage.peek(si, st).is_some() {
                self.prefetches.issue(cid, now, self.params.prefetch_delay);
            }
        }
    }
}

impl Predictor for LlbpPredictor {
    fn step(&mut self, pc: u64, taken: bool) -> PredictionInfo {
        self.process_arrivals();
        let tage = self.tsl.lookup_tage(pc);
        let cid = self.rcr.current_cid();
        let tags = self.pattern_tags(pc);
        let tags = &tags[..self.tag_folds.len()];
        self.stats.predictions += 1;

        let (pi, pt) = self.pb_key(cid);
        let mut resident = self.llbp_enabled && self.pb.get(pi, pt).is_some();
        if resident {
            self.stats.pb_hits += 1;
        }
        if !resident && self.llbp_enabled {
            // The set may exist in LLBP storage but not have arrived yet.
            let (si, st) = self.storage_key(cid);
            if self.storage.peek(si, st).is_some() {
                if self.params.prefetch_delay == 0 {
                    // LLBP-0Lat: storage is reachable within the cycle.
                    resident = self.fill_pb_from_storage(cid);
                } else {
                    self.stats.late_prefetches += 1;
                    // Demand-request the set for later predictions in this
                    // context.
                    let now = self.cycle();
                    self.prefetches.issue(cid, now, self.params.prefetch_delay);
                }
            }
        }

        let llbp = if resident {
            let (pi, pt) = self.pb_key(cid);
            self.pb.peek(pi, pt).and_then(|entry| {
                entry.set.find_longest(tags).map(|slot| {
                    let p = entry.set.pattern(slot).expect("slot was a match");
                    LlbpMatch {
                        slot,
                        pred: p.ctr.taken(),
                        weak: p.ctr.is_weak(),
                        hist_len: self.params.history_lengths[usize::from(p.len_idx)],
                    }
                })
            })
        } else {
            None
        };

        // Length arbitration (§V-B): LLBP wins ties and longer histories,
        // replacing TAGE's direction *before* the statistical corrector
        // and loop predictor apply (footnote 2) — so the correctors also
        // catch LLBP's statistical noise. With the (ablation)
        // weak-override gate, a just-allocated pattern defers to a
        // baseline backed by a tagged TAGE match.
        let weak_blocked =
            |m: &LlbpMatch| self.params.weak_override_gate && m.weak && tage.provider.is_some();
        let inject = match &llbp {
            Some(m) if m.hist_len >= tage.provider_hist_len && !weak_blocked(m) => Some(m.pred),
            _ => None,
        };
        let overrode = inject.is_some();
        let tsl = self.tsl.finish_lookup(pc, tage, inject);
        let final_pred = tsl.pred;

        // Fig. 15 classification: compare the produced direction against
        // what the baseline (no LLBP injection) would have predicted.
        if llbp.is_some() {
            let baseline = tsl.baseline_pred;
            let kind = if !overrode {
                OverrideKind::NoOverride
            } else if final_pred == baseline {
                if final_pred == taken {
                    OverrideKind::BothCorrect
                } else {
                    OverrideKind::BothWrong
                }
            } else if final_pred == taken {
                OverrideKind::GoodOverride
            } else {
                OverrideKind::BadOverride
            };
            self.stats.record_override(kind);
        }

        // Train the providing side (§V-D). The baseline's update is
        // cancelled only when LLBP actually *changed* the direction: on
        // redundant overrides (both agree — the majority, Fig. 15) the
        // baseline saw the same outcome it predicted and keeps training,
        // which prevents its state from decaying under LLBP's shadow.
        if overrode {
            let m = llbp.as_ref().expect("override implies a match");
            let (pi, pt) = self.pb_key(cid);
            if let Some(entry) = self.pb.get_mut(pi, pt) {
                if let Some(p) = entry.set.pattern_mut(m.slot) {
                    p.ctr.update(taken);
                    entry.dirty = true;
                }
            }
            let mode = match self.params.cancel_policy {
                CancelPolicy::Always => UpdateMode::Cancelled,
                CancelPolicy::OnDisagree if m.pred != tsl.tage.pred => UpdateMode::Cancelled,
                _ => UpdateMode::Full,
            };
            self.tsl.commit(&tsl, taken, mode);
        } else {
            self.tsl.commit(&tsl, taken, UpdateMode::Full);
        }

        // Allocation on a provider misprediction: a new pattern with the
        // next-longer history, in this context's set.
        let (provider_pred, base_len) = if overrode {
            let m = llbp.as_ref().expect("override implies a match");
            (m.pred, m.hist_len)
        } else {
            (tsl.pred, tsl.tage.provider_hist_len)
        };
        if provider_pred != taken && self.llbp_enabled {
            self.allocate_pattern(cid, tags, base_len, taken);
        }

        // A wrong final prediction resets the pipeline.
        if final_pred != taken {
            self.pipeline_reset();
        }

        let mut info = tsl.prediction_info();
        if let Some(m) = &llbp {
            info.llbp_hit = true;
            info.llbp_pred = m.pred;
            info.llbp_weak = m.weak;
            info.llbp_hist_len = m.hist_len.min(u16::MAX as usize) as u16;
        }
        info.llbp_override = overrode;
        info
    }

    fn update_history(&mut self, record: &BranchRecord) {
        self.advance_history(record);
    }

    fn label(&self) -> &str {
        &self.params.label
    }

    fn storage_bits(&self) -> u64 {
        self.params.storage_bits()
            + self.params.cd_bits()
            + self.params.pb_bits()
            + self.params.tsl.storage_bits()
    }
}

impl LlbpPredictor {
    /// The body of [`Predictor::update_history`]: instruction and cycle
    /// accounting, front-end redirects, the backing TAGE-SC-L's histories
    /// (LLBP's folded pattern histories among them), then context
    /// tracking and prefetch.
    fn advance_history(&mut self, record: &BranchRecord) {
        self.instructions += record.instructions();
        self.stats.instructions = self.instructions;
        self.stats.cycles = self.cycle();
        self.process_arrivals();

        // Late front-end redirects (BTB misses on taken branches, RAS
        // mismatches, indirect-target mispredictions) flush the front-end
        // and squash LLBP's prefetches (§VI; the PHPWiki pathology,
        // §VII-A, is indirect-target driven).
        if self.frontend.observe(record).is_some() {
            self.pipeline_reset();
        }

        self.tsl.update_history(record);

        // Context tracking + prefetch issue. The RCR always advances (so
        // re-enabling a power-gated LLBP is seamless); directory lookups
        // and prefetches only happen while enabled.
        if self.rcr.observes(record) {
            self.rcr.push(record.pc());
            if !self.llbp_enabled {
                return;
            }
            let upcoming = self.rcr.prefetch_cid();
            self.stats.cd_lookups += 1;
            let (si, st) = self.storage_key(upcoming);
            if self.storage.peek(si, st).is_some() {
                self.stats.cd_hits += 1;
                let (pi, pt) = self.pb_key(upcoming);
                if self.pb.peek(pi, pt).is_none() {
                    let now = self.cycle();
                    self.prefetches.issue(upcoming, now, self.params.prefetch_delay);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_trace::{BranchKind, Trace, Workload, WorkloadSpec};

    fn run(p: &mut dyn Predictor, trace: &Trace, skip: usize) -> (u64, u64) {
        let mut mispredicts = 0u64;
        let mut conds = 0u64;
        for (i, r) in trace.iter().enumerate() {
            if r.kind() == BranchKind::Conditional {
                let pred = p.step(r.pc(), r.taken()).pred;
                if i >= skip {
                    conds += 1;
                    mispredicts += u64::from(pred != r.taken());
                }
            }
            p.update_history(r);
        }
        (mispredicts, conds)
    }

    #[test]
    fn llbp_beats_baseline_on_context_heavy_workload() {
        let trace = WorkloadSpec::named(Workload::NodeApp).with_branches(300_000).generate();
        let skip = trace.len() / 3;
        let mut base = TageScl::new(llbp_tage::TslConfig::cbp64k());
        let (base_mis, _) = run(&mut base, &trace, skip);
        let mut llbp = LlbpPredictor::new(LlbpParams::default());
        let (llbp_mis, _) = run(&mut llbp, &trace, skip);
        assert!(
            llbp_mis < base_mis,
            "LLBP ({llbp_mis}) should beat 64K TSL ({base_mis}) on NodeApp"
        );
    }

    #[test]
    fn zero_latency_is_at_least_as_good() {
        let trace = WorkloadSpec::named(Workload::Merced).with_branches(200_000).generate();
        let skip = trace.len() / 3;
        let mut real = LlbpPredictor::new(LlbpParams::default());
        let (real_mis, _) = run(&mut real, &trace, skip);
        let mut ideal = LlbpPredictor::new(LlbpParams::zero_latency());
        let (ideal_mis, _) = run(&mut ideal, &trace, skip);
        // Allow a small tolerance: different prefetch timing perturbs
        // replacement decisions.
        assert!(
            (ideal_mis as f64) <= (real_mis as f64) * 1.05,
            "0Lat ({ideal_mis}) should not lose to real LLBP ({real_mis})"
        );
    }

    #[test]
    fn stats_are_internally_consistent() {
        let trace = WorkloadSpec::named(Workload::Tpcc).with_branches(100_000).generate();
        let mut p = LlbpPredictor::new(LlbpParams::default());
        let _ = run(&mut p, &trace, 0);
        let s = p.stats();
        assert!(s.breakdown_is_consistent());
        assert!(s.predictions > 0);
        assert!(s.llbp_matches <= s.predictions);
        assert!(s.cd_hits <= s.cd_lookups);
        assert!(s.storage_reads > 0, "pattern sets must move");
        assert!(s.contexts_created > 0);
    }

    #[test]
    fn llbp_provides_for_a_minority_of_predictions() {
        // §VII-G: LLBP provides for ~15% of dynamic conditional branches.
        let trace = WorkloadSpec::named(Workload::Tomcat).with_branches(150_000).generate();
        let mut p = LlbpPredictor::new(LlbpParams::default());
        let _ = run(&mut p, &trace, 0);
        let rate = p.stats().match_rate();
        assert!(rate < 0.7, "match rate {rate:.2} implausibly high");
        assert!(rate > 0.005, "match rate {rate:.3} implausibly low");
    }

    #[test]
    fn indirect_target_changes_reset_the_pipeline() {
        let mut p = LlbpPredictor::new(LlbpParams::default());
        let r1 = BranchRecord::unconditional(0x100, 0x2000, BranchKind::IndirectCall, 3);
        let r2 = BranchRecord::unconditional(0x100, 0x3000, BranchKind::IndirectCall, 3);
        // A cold indirect site mispredicts (reset #1); once trained, the
        // stable target stops resetting; a target change resets again.
        p.update_history(&r1);
        assert_eq!(p.stats().pipeline_resets, 1);
        p.update_history(&r1);
        p.update_history(&r1);
        let stable = p.stats().pipeline_resets;
        p.update_history(&r1);
        assert_eq!(p.stats().pipeline_resets, stable, "stable target must not reset");
        p.update_history(&r2);
        assert!(p.stats().pipeline_resets > stable, "target change must reset");
    }

    #[test]
    fn power_gated_llbp_behaves_like_the_baseline() {
        let trace = WorkloadSpec::named(Workload::Kafka).with_branches(60_000).generate();
        let mut gated = LlbpPredictor::new(LlbpParams::default());
        gated.set_llbp_enabled(false);
        let (gated_mis, _) = run(&mut gated, &trace, 0);
        let mut base = TageScl::new(llbp_tage::TslConfig::cbp64k());
        let (base_mis, _) = run(&mut base, &trace, 0);
        assert_eq!(gated_mis, base_mis, "disabled LLBP must match the bare baseline");
        assert_eq!(gated.stats().llbp_matches, 0);
        assert_eq!(gated.stats().storage_reads, 0);
        assert_eq!(gated.stats().cd_lookups, 0);
    }

    #[test]
    fn reenabling_llbp_resumes_operation() {
        let trace = WorkloadSpec::named(Workload::Kafka).with_branches(40_000).generate();
        let mut p = LlbpPredictor::new(LlbpParams::default());
        p.set_llbp_enabled(false);
        let half = trace.len() / 2;
        for (i, r) in trace.iter().enumerate() {
            if i == half {
                p.set_llbp_enabled(true);
            }
            if r.kind() == BranchKind::Conditional {
                let _ = p.step(r.pc(), r.taken());
            }
            p.update_history(r);
        }
        assert!(p.llbp_enabled());
        assert!(p.stats().cd_lookups > 0, "LLBP must resume after re-enable");
        assert!(p.stats().contexts_created > 0);
    }

    #[test]
    fn pattern_folds_share_the_baseline_fold_bank() {
        // 32 pattern folds over 16 lengths: 8 repeat inside LLBP and 10
        // equal the 64K TAGE's 13/12-bit tag folds, so 14 registers join
        // TAGE's 47.
        let p = LlbpPredictor::new(LlbpParams::default());
        assert_eq!(p.baseline().tage().folds().len(), 47 + 14);
    }

    #[test]
    fn storage_accounting_is_about_half_a_mebibyte() {
        let p = LlbpPredictor::new(LlbpParams::default());
        let kib = (p.storage_bits() - p.params().tsl.storage_bits()) as f64 / 8192.0;
        assert!((500.0..530.0).contains(&kib), "LLBP-side storage is {kib:.1} KiB");
    }
}
