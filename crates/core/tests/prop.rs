//! Randomized property tests for the LLBP components, driven by the
//! in-tree `SplitMix64` PRNG (no external property-testing framework, so
//! the workspace builds with no network access).

use bputil::rng::SplitMix64;
use llbp_core::rcr::RollingContextRegister;
use llbp_core::{ContextHistoryKind, LlbpParams, LlbpPredictor, PatternSet, PrefetchQueue};
use llbp_tage::Predictor;
use llbp_trace::{BranchKind, BranchRecord};

/// Pattern sets keep their sorted-by-length invariant and capacity
/// bound under arbitrary allocation/training interleavings.
#[test]
fn pattern_set_invariants() {
    let mut rng = SplitMix64::new(0x9A7);
    for case in 0..30 {
        let buckets = [1usize, 2, 4][case % 3];
        let mut set = PatternSet::new(16, buckets, 16);
        for _ in 0..1 + rng.below(300) {
            let len_idx = rng.below(16) as u8;
            let tag = rng.below(0x2000) as u32;
            set.allocate(len_idx, tag, rng.chance(1, 2), 3);
            assert!(set.is_sorted());
            assert!(set.occupancy() <= set.capacity());
        }
    }
}

/// A matched pattern's length index always owns the tag that matched:
/// `find_longest` never returns a slot whose tag differs.
#[test]
fn find_longest_returns_true_matches() {
    let mut rng = SplitMix64::new(0xF19D);
    for _ in 0..40 {
        let mut set = PatternSet::new(16, 4, 16);
        for _ in 0..1 + rng.below(100) {
            set.allocate(rng.below(16) as u8, rng.below(0x2000) as u32, rng.chance(1, 2), 3);
        }
        let probe: Vec<u32> = (0..16).map(|_| rng.below(0x2000) as u32).collect();
        if let Some(slot) = set.find_longest(&probe) {
            let p = set.pattern(slot).expect("matched slot is occupied");
            assert_eq!(probe[usize::from(p.len_idx)], p.tag);
        }
    }
}

/// The RCR's prefetch CID always becomes the current CID after exactly
/// `D` observed pushes, for arbitrary geometries and PC streams.
#[test]
fn rcr_prefetch_contract() {
    let mut rng = SplitMix64::new(0x9C9);
    for _ in 0..40 {
        let window = 1 + rng.below(11) as usize;
        let distance = rng.below(6) as usize;
        let n = 24 + rng.below(40) as usize;
        let pcs: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let mut r =
            RollingContextRegister::new(window, distance, 14, ContextHistoryKind::Unconditional);
        // Prime beyond the register depth.
        let (prime, rest) = pcs.split_at((window + distance).min(pcs.len()));
        for &pc in prime {
            r.push(pc);
        }
        for chunk in rest.chunks(distance.max(1)) {
            if chunk.len() < distance.max(1) {
                break;
            }
            let upcoming = r.prefetch_cid();
            for &pc in chunk {
                r.push(pc);
            }
            if distance > 0 {
                assert_eq!(r.current_cid(), upcoming);
            }
        }
    }
}

/// The prefetch queue delivers everything exactly once, in order, and
/// never before its ready time.
#[test]
fn prefetch_queue_delivery() {
    let mut rng = SplitMix64::new(0x9F0);
    for _ in 0..40 {
        let issues: Vec<(u64, u64, u64)> = (0..1 + rng.below(60))
            .map(|_| (rng.below(1000), rng.below(100), rng.below(20)))
            .collect();
        let mut q = PrefetchQueue::new();
        let mut expected = std::collections::HashSet::new();
        let mut now = 0u64;
        let mut delivered = 0u64;
        for &(cid, gap, delay) in &issues {
            now += gap;
            q.issue(cid, now, delay);
            expected.insert(cid);
            for p in q.drain_ready(now) {
                assert!(p.ready_at <= now);
                delivered += 1;
            }
        }
        delivered += q.drain_ready(u64::MAX).len() as u64;
        assert_eq!(delivered, q.completed());
        assert!(q.is_empty());
        // Coalescing means delivered <= issues, but every distinct CID in
        // flight at its time was eventually delivered or squashed (no
        // squash here).
        assert!(delivered as usize <= issues.len());
    }
}

/// The composed LLBP predictor survives arbitrary record streams with
/// consistent statistics.
#[test]
fn llbp_predictor_robust() {
    let mut rng = SplitMix64::new(0x11B9);
    for _ in 0..10 {
        let mut p = LlbpPredictor::new(LlbpParams::default());
        for _ in 0..1 + rng.below(300) {
            let pc = 0x40_0000 + rng.below(64) * 8;
            let taken = rng.chance(1, 2);
            let kind = BranchKind::from_u8(rng.below(6) as u8).expect("in range");
            let gap = rng.below(8) as u32;
            if kind == BranchKind::Conditional {
                let _ = p.step(pc, taken);
                p.update_history(&BranchRecord::conditional(pc, pc + 8, taken, gap));
            } else {
                p.update_history(&BranchRecord::unconditional(pc, pc ^ 0x80, kind, gap));
            }
        }
        let s = p.stats();
        assert!(s.breakdown_is_consistent());
        assert!(s.pb_hits <= s.predictions);
        assert!(s.cd_hits <= s.cd_lookups);
    }
}
