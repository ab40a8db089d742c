//! Microbenchmarks of the predictor building blocks: folded history
//! maintenance, TAGE lookup, pattern-set matching/allocation, RCR hashing,
//! and table lookups. These quantify the per-branch cost of each hardware
//! structure's software model.
//!
//! Uses a std-only timing harness (no external bench framework) so the
//! workspace builds hermetically; run with `cargo bench --bench components`.

use bputil::history::{FoldBank, FoldedHistory, HistoryBuffer};
use bputil::rng::SplitMix64;
use bputil::table::SetAssoc;
use llbp_core::rcr::RollingContextRegister;
use llbp_core::{ContextHistoryKind, PatternSet};
use llbp_tage::tage::UpdateMode;
use llbp_tage::{Tage, TageConfig};
use llbp_trace::{BranchKind, Workload, WorkloadSpec};
use std::hint::black_box;
use std::time::Instant;

const ITERS: u64 = 2_000_000;

/// Times `ITERS` calls of `f` and reports nanoseconds per call.
fn bench<F: FnMut()>(name: &str, mut f: F) {
    // Warmup.
    for _ in 0..(ITERS / 10) {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / ITERS as f64;
    println!("{name:28} {ns:>10.2} ns/op");
}

fn bench_folded_history() {
    let mut ghr = HistoryBuffer::new(4096);
    let mut folds: Vec<FoldedHistory> =
        (1..=21).map(|i| FoldedHistory::new(i * 140 + 6, 13)).collect();
    let mut rng = SplitMix64::new(1);
    bench("folded_history_update", || {
        let bit = rng.chance(1, 2);
        for f in &mut folds {
            f.update_before_push(&ghr, bit);
        }
        ghr.push(bit);
        black_box(folds[20].value());
    });
}

/// One op advances every distinct register of the 64K TAGE (47 shapes
/// from 21 tables x 3 folds) by one history bit.
fn bench_fold_bank() {
    let cfg = TageConfig::cbp64k();
    let mut ghr = HistoryBuffer::new(cfg.max_history() + 64);
    let mut bank = FoldBank::new();
    for (&l, &t) in cfg.history_lengths.iter().zip(&cfg.tag_bits) {
        bank.register(l, cfg.index_bits);
        bank.register(l, t);
        bank.register(l, (t - 1).max(1));
    }
    let last = bank.len() - 1;
    let mut rng = SplitMix64::new(6);
    bench("fold_bank_update", || {
        let bit = rng.chance(1, 2);
        bank.update(&ghr, bit);
        ghr.push(bit);
        black_box(bank.value(last));
    });
}

/// One op is a 64K TAGE lookup (21 index and tag hashes, the table scan)
/// for a conditional branch of a trace the predictor was trained on.
fn bench_tage_lookup() {
    let trace = WorkloadSpec::named(Workload::Http).with_branches(50_000).generate();
    let mut tage = Tage::new(TageConfig::cbp64k());
    for r in &trace {
        if r.kind() == BranchKind::Conditional {
            let l = tage.lookup(r.pc());
            tage.commit(&l, r.taken(), UpdateMode::Full);
        }
        tage.update_history(r);
    }
    let pcs: Vec<u64> =
        trace.iter().filter(|r| r.kind() == BranchKind::Conditional).map(|r| r.pc()).collect();
    let mut i = 0;
    bench("tage_lookup", || {
        i = (i + 1) % pcs.len();
        black_box(tage.lookup(black_box(pcs[i])).pred);
    });
}

fn bench_pattern_set() {
    let mut set = PatternSet::new(16, 4, 16);
    let mut rng = SplitMix64::new(2);
    for i in 0..16u8 {
        set.allocate(i, rng.next_u64() as u32 & 0x1FFF, rng.chance(1, 2), 3);
    }
    let tags: Vec<u32> = (0..16).map(|_| rng.next_u64() as u32 & 0x1FFF).collect();
    bench("pattern_set_match", || {
        black_box(set.find_longest(black_box(&tags)));
    });

    // One set, allocated into once per op: after the first 16 calls it
    // is full and every allocate evicts a victim, the steady state of a
    // context's pattern set. Building the set inside the op would time
    // `PatternSet::new`'s heap allocation along with 16 allocates.
    let mut set = PatternSet::new(16, 4, 16);
    let mut rng = SplitMix64::new(3);
    bench("pattern_set_allocate", || {
        set.allocate(rng.below(16) as u8, rng.next_u64() as u32 & 0x1FFF, rng.chance(1, 2), 3);
        black_box(set.occupancy());
    });
}

fn bench_rcr() {
    let mut rcr = RollingContextRegister::new(8, 4, 14, ContextHistoryKind::Unconditional);
    let mut rng = SplitMix64::new(4);
    bench("rcr_push_and_cid", || {
        rcr.push(rng.next_u64());
        black_box((rcr.current_cid(), rcr.prefetch_cid()));
    });
}

fn bench_set_assoc() {
    let mut t: SetAssoc<u64> = SetAssoc::new(11, 7);
    for i in 0..14_000u64 {
        t.insert_lru(i, i >> 11, i);
    }
    let mut rng = SplitMix64::new(5);
    bench("set_assoc_lookup_hit", || {
        let i = rng.below(14_000);
        black_box(t.get(i, i >> 11).copied());
    });
}

fn main() {
    bench_folded_history();
    bench_fold_bank();
    bench_tage_lookup();
    bench_pattern_set();
    bench_rcr();
    bench_set_assoc();
}
