//! Randomized property tests for the predictor building blocks.
//!
//! Driven by the in-tree `SplitMix64` PRNG (deterministic seeds, many
//! cases per property) instead of an external property-testing framework,
//! so the workspace builds with no network access.

use bputil::counter::{SatCounter, UnsignedCounter};
use bputil::history::{FoldBank, FoldedHistory, HistoryBuffer};
use bputil::rng::SplitMix64;
use bputil::table::SetAssoc;

/// The incrementally folded history always equals folding the full
/// history from scratch, for arbitrary outcome streams and geometries.
#[test]
fn folded_history_equals_reference() {
    let mut rng = SplitMix64::new(0xF01D);
    for case in 0..80 {
        let olen = 1 + rng.below(400) as usize;
        // Every width the register supports, 32 included.
        let clen = if case < 4 { 29 + case } else { 1 + rng.below(32) as u32 };
        let n = 1 + rng.below(1500) as usize;
        let mut ghr = HistoryBuffer::new(512);
        let mut fh = FoldedHistory::new(olen, clen);
        for _ in 0..n {
            let t = rng.chance(1, 2);
            fh.update_before_push(&ghr, t);
            ghr.push(t);
        }
        // Only valid while the GHR still remembers the whole window.
        if olen <= ghr.capacity() {
            assert_eq!(
                fh.value(),
                ghr.fold(olen, clen),
                "case {case}: olen={olen} clen={clen} n={n}"
            );
        }
    }
}

/// Every register of a [`FoldBank`] equals folding the full history from
/// scratch at every step, and equals a [`FoldedHistory`] of its shape:
/// duplicate shapes share one register, and the shapes cover width 1,
/// widths 31 and 32, and windows longer than 64 bits.
#[test]
fn fold_bank_equals_reference() {
    let mut rng = SplitMix64::new(0xBA4C);
    for case in 0..40 {
        let mut shapes: Vec<(usize, u32)> = vec![(1, 1), (7, 1), (65, 31), (40, 32), (300, 32)];
        for _ in 0..rng.below(12) {
            let window = 1 + rng.below(400) as usize;
            let width = 1 + rng.below(32) as u32;
            shapes.push((window, width));
            // A repeated shape, and one sharing only the window.
            if rng.chance(1, 3) {
                shapes.push((window, width));
                shapes.push((window, 1 + rng.below(32) as u32));
            }
        }
        let mut bank = FoldBank::new();
        let regs: Vec<usize> = shapes.iter().map(|&(o, c)| bank.register(o, c)).collect();
        let mut distinct = shapes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(bank.len(), distinct.len(), "case {case}: shapes must deduplicate");
        for (&r, &shape) in regs.iter().zip(&shapes) {
            assert_eq!(bank.shape(r), shape);
        }
        let mut singles: Vec<FoldedHistory> =
            shapes.iter().map(|&(o, c)| FoldedHistory::new(o, c)).collect();
        let mut ghr = HistoryBuffer::new(512);
        for step in 0..1 + rng.below(900) {
            let t = rng.chance(1, 2);
            bank.update(&ghr, t);
            for f in &mut singles {
                f.update_before_push(&ghr, t);
            }
            ghr.push(t);
            for ((&r, &(o, c)), f) in regs.iter().zip(&shapes).zip(&singles) {
                let want = ghr.fold(o, c);
                assert_eq!(bank.value(r), want, "case {case} step {step}: window={o} width={c}");
                assert_eq!(f.value(), want, "case {case} step {step}: window={o} width={c}");
            }
        }
    }
}

/// Saturating counters never leave their representable range and the
/// predicted direction equals the sign.
#[test]
fn sat_counter_stays_in_range() {
    let mut rng = SplitMix64::new(0x5A7);
    for _ in 0..100 {
        let bits = 1 + rng.below(8) as u32;
        let mut c = SatCounter::new_signed(bits);
        for _ in 0..rng.below(200) {
            c.update(rng.chance(1, 2));
            assert!(c.value() >= c.min() && c.value() <= c.max());
            assert_eq!(c.taken(), c.value() >= 0);
        }
    }
}

/// An unsigned counter never exceeds the number of increments and never
/// goes negative.
#[test]
fn unsigned_counter_bounds() {
    let mut rng = SplitMix64::new(0xC0);
    for _ in 0..100 {
        let bits = 1 + rng.below(8) as u32;
        let mut c = UnsignedCounter::new(bits);
        let mut ups = 0u32;
        for _ in 0..rng.below(200) {
            if rng.chance(1, 2) {
                c.increment();
                ups += 1;
            } else {
                c.decrement();
            }
            assert!(u32::from(c.value()) <= ups);
            assert!(c.value() <= c.max());
        }
    }
}

/// A set-associative table never holds two valid entries with the same
/// (set, tag), and occupancy never exceeds sets × ways.
#[test]
fn set_assoc_no_duplicate_tags() {
    let mut rng = SplitMix64::new(0x7AB);
    for _ in 0..60 {
        let index_bits = rng.below(5) as u32;
        let ways = 1 + rng.below(4) as usize;
        let mut t: SetAssoc<u64> = SetAssoc::new(index_bits, ways);
        for _ in 0..1 + rng.below(300) {
            let tag = rng.next_u64();
            let idx = rng.below(16);
            t.insert_lru(idx, tag, tag);
            let set_count = 1usize << index_bits;
            assert!(t.occupancy() <= set_count * ways);
        }
        // No duplicates: every (set, tag) pair appears at most once.
        let mut seen = std::collections::HashSet::new();
        for (set, tag, _) in t.iter() {
            assert!(seen.insert((set, tag)), "duplicate (set={set}, tag={tag})");
        }
    }
}

/// Lookup after insert always hits (within the same set and tag), and the
/// stored value round-trips.
#[test]
fn set_assoc_insert_then_get() {
    let mut rng = SplitMix64::new(0x9E7);
    for _ in 0..200 {
        let index_bits = rng.below(5) as u32;
        let ways = 1 + rng.below(8) as usize;
        let idx = rng.next_u64();
        let tag = rng.next_u64();
        let value = rng.next_u64();
        let mut t: SetAssoc<u64> = SetAssoc::new(index_bits, ways);
        t.insert_lru(idx, tag, value);
        assert_eq!(t.get(idx, tag), Some(&value));
    }
}

/// Histogram percentiles are monotone in `p` and bounded by min/max.
#[test]
fn histogram_percentiles_monotone() {
    let mut rng = SplitMix64::new(0x415);
    for _ in 0..100 {
        let n = 1 + rng.below(200) as usize;
        let samples: Vec<u64> = (0..n).map(|_| rng.below(10_000)).collect();
        let h: bputil::stats::Histogram = samples.iter().copied().collect();
        let p50 = h.percentile(50.0).unwrap();
        let p95 = h.percentile(95.0).unwrap();
        assert!(p50 <= p95);
        assert!(h.min().unwrap() <= p50);
        assert!(p95 <= h.max().unwrap());
    }
}
