//! Randomized property tests for the TAGE-SC-L components, driven by the
//! in-tree `SplitMix64` PRNG (no external property-testing framework, so
//! the workspace builds with no network access).

use bputil::rng::SplitMix64;
use llbp_tage::tage::UpdateMode;
use llbp_tage::{Predictor, ProviderKind, StorageKind, Tage, TageConfig, TageScl, TslConfig};
use llbp_trace::{BranchKind, BranchRecord};

fn small_tage_config(storage: StorageKind) -> TageConfig {
    TageConfig {
        history_lengths: vec![4, 8, 16, 32],
        tag_bits: vec![9, 9, 11, 11],
        index_bits: 6,
        bimodal_bits: 7,
        storage,
        ..TageConfig::cbp64k()
    }
}

fn arb_branch(rng: &mut SplitMix64) -> (u64, bool) {
    (0x1000 + rng.below(64) * 12, rng.chance(1, 2))
}

/// TAGE never panics and stays internally consistent under arbitrary
/// branch streams, in both storage modes.
#[test]
fn tage_survives_arbitrary_streams() {
    let mut rng = SplitMix64::new(0x7A6E);
    for case in 0..24 {
        let infinite = case % 2 == 0;
        let storage = if infinite { StorageKind::Infinite } else { StorageKind::Finite };
        let mut t = Tage::new(small_tage_config(storage));
        for _ in 0..1 + rng.below(800) {
            let (pc, taken) = arb_branch(&mut rng);
            let l = t.lookup(pc);
            // The reported prediction matches one of the components.
            assert!(l.pred == l.provider_pred || l.pred == l.alt_pred || l.pred == l.bim_pred);
            t.commit(&l, taken, UpdateMode::Full);
            t.update_history(&BranchRecord::conditional(pc, pc + 8, taken, 0));
        }
        if infinite {
            assert_eq!(t.alloc_failures(), 0);
        }
    }
}

/// A cancelled update never changes allocation counts.
#[test]
fn cancelled_updates_never_allocate() {
    let mut rng = SplitMix64::new(0xCA9C);
    for _ in 0..20 {
        let mut t = Tage::new(small_tage_config(StorageKind::Finite));
        for _ in 0..1 + rng.below(200) {
            let (pc, taken) = arb_branch(&mut rng);
            let l = t.lookup(pc);
            let before = t.allocations();
            t.commit(&l, taken, UpdateMode::Cancelled);
            assert_eq!(t.allocations(), before);
            t.update_history(&BranchRecord::conditional(pc, pc + 8, taken, 0));
        }
    }
}

/// The full TSL predictor's step/update protocol never panics and its
/// provider attribution is always valid.
#[test]
fn tsl_protocol_is_robust() {
    let mut rng = SplitMix64::new(0x751);
    for _ in 0..10 {
        let mut cfg = TslConfig::cbp64k();
        cfg.tage = small_tage_config(StorageKind::Finite);
        let mut p = TageScl::new(cfg);
        for _ in 0..1 + rng.below(400) {
            let pc = 0x4000 + rng.below(48) * 8;
            let taken = rng.chance(1, 2);
            let kind = BranchKind::from_u8(rng.below(6) as u8).expect("in range");
            if kind == BranchKind::Conditional {
                let info = p.step(pc, taken);
                assert!(info.provider.ordinal() < ProviderKind::COUNT);
                p.update_history(&BranchRecord::conditional(pc, pc + 8, taken, 1));
            } else {
                p.update_history(&BranchRecord::unconditional(pc, pc ^ 0x40, kind, 1));
            }
        }
    }
}

/// Determinism: identical streams give identical predictions.
#[test]
fn tage_is_deterministic() {
    let mut rng = SplitMix64::new(0xDE7E);
    for _ in 0..12 {
        let branches: Vec<(u64, bool)> =
            (0..1 + rng.below(300)).map(|_| arb_branch(&mut rng)).collect();
        let run = || -> Vec<bool> {
            let mut t = Tage::new(small_tage_config(StorageKind::Finite));
            branches
                .iter()
                .map(|&(pc, taken)| {
                    let l = t.lookup(pc);
                    t.commit(&l, taken, UpdateMode::Full);
                    t.update_history(&BranchRecord::conditional(pc, pc + 8, taken, 0));
                    l.pred
                })
                .collect()
        };
        assert_eq!(run(), run());
    }
}

/// The ITTAGE indirect predictor is robust and statistics stay
/// consistent under arbitrary target streams.
#[test]
fn ittage_statistics_consistent() {
    let mut rng = SplitMix64::new(0x177A);
    for _ in 0..20 {
        let n = 1 + rng.below(400);
        let mut it = llbp_tage::Ittage::new();
        for _ in 0..n {
            let pc = 0x9000 + rng.below(8) * 16;
            let l = it.lookup(pc);
            let _ = it.update(&l, 0xA000 + rng.below(6) * 64);
            it.update_history(pc);
        }
        assert_eq!(it.predictions(), n);
        assert!(it.mispredictions() <= it.predictions());
    }
}

/// The return-address stack never mispredicts on balanced call/return
/// sequences within its capacity.
#[test]
fn ras_perfect_on_balanced_sequences() {
    for depth in 1usize..30 {
        let mut ras = llbp_tage::ReturnAddressStack::new(32);
        let addrs: Vec<u64> = (0..depth as u64).map(|i| 0x100 + i * 4).collect();
        for &a in &addrs {
            ras.push(a);
        }
        for &a in addrs.iter().rev() {
            assert!(ras.pop_and_check(a));
        }
        assert_eq!(ras.mispredictions(), 0);
    }
}
