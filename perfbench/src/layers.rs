//! Per-layer probes for the traced run. Each replays the workload's own
//! traces (or cells) through one layer's public surface and times whole
//! passes, so reading the clock never dominates what is measured.
//!
//! Where one call cannot be isolated (a lookup needs the history update
//! that follows it), the probe times passes that differ by exactly that
//! call and reports the difference per call; training calls, which change
//! what later lookups find, are timed per call instead. Every timed pass
//! runs three times from the same starting state, interleaved round by
//! round with the passes it is compared with, and keeps the fastest.

use crate::grid::{union_predictors, KIND_NAMES};
use crate::report::Outcome;
use bputil::history::{FoldedHistory, HistoryBuffer};
use llbp_core::{LlbpParams, PatternSet, PrefetchQueue, RollingContextRegister};
use llbp_sim::{MemoStore, SimConfig, SimResult, SweepSpec};
use llbp_tage::tage::UpdateMode;
use llbp_tage::{LoopPredictor, StatisticalCorrector, Tage, TageConfig, TslConfig};
use llbp_trace::{BranchKind, BranchRecord, Trace, WorkloadSpec};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const PASSES: usize = 3;

/// Fastest of [`PASSES`] runs of each of `N` pass variants, in
/// nanoseconds, interleaved round by round. `prepare` builds each pass's
/// starting state and whatever the pass returns is dropped, both outside
/// the timed region.
fn fastest_each<S, R, const N: usize>(
    mut prepare: impl FnMut() -> S,
    mut pass: impl FnMut(usize, S) -> R,
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..PASSES {
        for (variant, b) in best.iter_mut().enumerate() {
            let state = prepare();
            let t = Instant::now();
            let left = pass(variant, state);
            *b = b.min(t.elapsed().as_nanos() as f64);
            drop(left);
        }
    }
    best
}

/// [`fastest_each`] of a single pass.
fn fastest<S, R>(prepare: impl FnMut() -> S, mut pass: impl FnMut(S) -> R) -> f64 {
    let [ns] = fastest_each(prepare, |_, state| pass(state));
    ns
}

fn per(ns: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns.max(0.0) / count as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The bit a retired branch shifts into the global history (the same
/// rule the predictors apply).
fn history_bit(r: &BranchRecord) -> bool {
    if r.kind() == BranchKind::Conditional {
        r.taken()
    } else {
        ((r.pc() >> 2) ^ (r.target() >> 3)) & 1 == 1
    }
}

fn is_cond(r: &BranchRecord) -> bool {
    r.kind() == BranchKind::Conditional
}

fn count_cond(traces: &[Trace]) -> usize {
    traces.iter().map(|t| t.records().iter().filter(|r| is_cond(r)).count()).sum()
}

fn count_records(traces: &[Trace]) -> usize {
    traces.iter().map(Trace::len).sum()
}

// ---------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------

/// `synth.*` and `trace_io.*`: generation rate and codec throughput on the
/// workload's own specs.
pub fn trace_layer(specs: &[WorkloadSpec], out: &mut Outcome) {
    let t = Instant::now();
    let traces: Vec<Trace> = specs.iter().map(WorkloadSpec::generate).collect();
    let gen_ns = t.elapsed().as_nanos() as f64;
    let records = count_records(&traces);
    out.push(
        "synth.mrec_per_s",
        records as f64 / gen_ns * 1e3,
        "Mrec/s",
        format!("{} specs, {records} records", specs.len()),
    );

    let mut encoded = Vec::new();
    let encode_ns = fastest(
        || (),
        |()| {
            encoded = traces
                .iter()
                .map(|tr| {
                    let mut buf = Vec::new();
                    llbp_trace::io::write_trace(&mut buf, tr).expect("in-memory encode");
                    buf
                })
                .collect();
        },
    );
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mib = bytes as f64 / (1024.0 * 1024.0);
    out.push(
        "trace_io.encode_mib_per_s",
        mib / (encode_ns / 1e9),
        "MiB/s",
        format!("{mib:.1} MiB"),
    );
    let mut decoded_ok = true;
    let decode_ns = fastest(
        || (),
        |()| {
            for (buf, tr) in encoded.iter().zip(&traces) {
                let back =
                    llbp_trace::io::read_trace(buf.as_slice()).expect("decodes what it encoded");
                decoded_ok &= back.len() == tr.len();
            }
        },
    );
    out.check(decoded_ok, || "trace decode changed a trace's length".into());
    out.push(
        "trace_io.decode_mib_per_s",
        mib / (decode_ns / 1e9),
        "MiB/s",
        format!("{mib:.1} MiB"),
    );
}

// ---------------------------------------------------------------------
// sim::memo
// ---------------------------------------------------------------------

/// Per-call memo costs over every cell of `grid`, which `store` holds.
pub struct MemoCosts {
    pub fingerprint_us: f64,
    pub load_us: f64,
    pub store_us: f64,
}

/// `memo.fingerprint_us`, `memo.load_us`, `memo.store_us`: passes over
/// the grid's cells (stores go to a scratch store under `scratch`).
pub fn memo_layer(
    store: &MemoStore,
    grid: &SweepSpec,
    scratch: &Path,
    out: &mut Outcome,
) -> MemoCosts {
    let cells: Vec<_> =
        grid.workloads.iter().flat_map(|w| grid.predictors.iter().map(move |p| (p, w))).collect();
    let n = cells.len();
    let fp_ns = fastest(
        || (),
        |()| {
            for (p, w) in &cells {
                black_box(store.result_fingerprint(p, w, &grid.sim));
            }
        },
    );
    let fps: Vec<_> =
        cells.iter().map(|(p, w)| store.result_fingerprint(p, w, &grid.sim)).collect();
    let mut loaded = Vec::with_capacity(n);
    let load_ns = fastest(
        || (),
        |()| {
            loaded = fps.iter().map(|&fp| store.load_result(fp).ok().flatten()).collect();
        },
    );
    out.check(loaded.iter().all(Option::is_some), || {
        "memo probe: a stored cell failed to load".into()
    });
    let probe_dir = scratch.join("memo-probe");
    let probe = MemoStore::open(&probe_dir).expect("scratch store opens");
    let store_ns = fastest(
        || (),
        |()| {
            for (fp, cell) in fps.iter().zip(loaded.iter().flatten()) {
                let _ = probe.store_result(*fp, &cell.result, cell.wall, cell.trace_len);
            }
        },
    );
    let _ = std::fs::remove_dir_all(&probe_dir);
    let costs = MemoCosts {
        fingerprint_us: per(fp_ns, n) / 1e3,
        load_us: per(load_ns, n) / 1e3,
        store_us: per(store_ns, n) / 1e3,
    };
    let note = format!("per call, {n} cells");
    out.push("memo.fingerprint_us", costs.fingerprint_us, "us", note.clone());
    out.push("memo.load_us", costs.load_us, "us", note.clone());
    out.push("memo.store_us", costs.store_us, "us", note);
    costs
}

// ---------------------------------------------------------------------
// sim::backend (through SimConfig::run)
// ---------------------------------------------------------------------

/// `sim.mbr_per_s.<kind>` for every union-grid predictor and
/// `llbp.overhead_ns_per_br`; returns the LLBP results for the counts.
pub fn sim_layer(traces: &[Trace], out: &mut Outcome) -> Vec<SimResult> {
    let cfg = SimConfig::default();
    let records = count_records(traces);
    let mut ns_per_br = Vec::new();
    let mut llbp = Vec::new();
    for (kind, name) in union_predictors().into_iter().zip(KIND_NAMES) {
        let t = Instant::now();
        let results: Vec<SimResult> = traces.iter().map(|tr| cfg.run(kind.clone(), tr)).collect();
        let ns = t.elapsed().as_nanos() as f64;
        if name == "llbp" {
            llbp = results;
        }
        ns_per_br.push(per(ns, records));
        out.push(
            format!("sim.mbr_per_s.{name}"),
            records as f64 / ns * 1e3,
            "Mrec/s",
            format!("{} traces, {records} records", traces.len()),
        );
    }
    out.push(
        "llbp.overhead_ns_per_br",
        ns_per_br[3] - ns_per_br[0],
        "ns",
        "LLBP minus 64K TSL per branch record, same traces",
    );
    llbp
}

// ---------------------------------------------------------------------
// bputil::history
// ---------------------------------------------------------------------

/// `hist.*`: the 64K TAGE's folded registers (index + two tag folds per
/// table) advanced over the workload's history bits.
pub fn history_layer(traces: &[Trace], out: &mut Outcome) {
    let cfg = TageConfig::cbp64k();
    let cap = cfg.max_history() + 64;
    let make_folds = || -> Vec<FoldedHistory> {
        cfg.history_lengths
            .iter()
            .zip(&cfg.tag_bits)
            .flat_map(|(&l, &t)| {
                [
                    FoldedHistory::new(l, cfg.index_bits),
                    FoldedHistory::new(l, t),
                    FoldedHistory::new(l, (t - 1).max(1)),
                ]
            })
            .collect()
    };
    let bits: Vec<Vec<bool>> =
        traces.iter().map(|t| t.records().iter().map(history_bit).collect()).collect();
    let records = count_records(traces);
    let folds = make_folds().len();

    // Variants: GHR push only; + every register via `update_before_push`;
    // + every register via `update_with_out_bit` (one outgoing-bit read per
    // table, shared by its three registers).
    let [push_ns, ref_ns, fast_ns] = fastest_each(
        || (),
        |variant, ()| {
            for bs in &bits {
                let mut ghr = HistoryBuffer::new(cap);
                let mut fs = make_folds();
                for &b in bs {
                    match variant {
                        0 => {}
                        1 => {
                            for f in &mut fs {
                                f.update_before_push(&ghr, b);
                            }
                        }
                        _ => {
                            for table in fs.chunks_exact_mut(3) {
                                let out = ghr.bit(table[0].original_len() - 1);
                                for f in table {
                                    f.update_with_out_bit(out, b);
                                }
                            }
                        }
                    }
                    ghr.push(b);
                }
                black_box((ghr.bit(0), fs[folds - 1].value()));
            }
        },
    );
    let note = format!("{records} records x {folds} registers");
    out.push(
        "hist.fold_ns",
        per(fast_ns - push_ns, records * folds),
        "ns",
        format!("update_with_out_bit per register, {note}"),
    );
    out.push(
        "hist.fold_ref_ns",
        per(ref_ns - push_ns, records * folds),
        "ns",
        format!("update_before_push per register, {note}"),
    );
    out.push("hist.ghr_push_ns", per(push_ns, records), "ns", format!("{records} pushes"));
}

// ---------------------------------------------------------------------
// tage: core TAGE, SC, loop predictor
// ---------------------------------------------------------------------

/// Trains a fresh TAGE over each trace (untimed), then times replays of
/// the same trace from the trained state. Returns per-call ns `(lookup,
/// commit, history)` and the trained instances.
fn tage_passes(cfg: &TageConfig, traces: &[Trace]) -> ((f64, f64, f64), Vec<Tage>) {
    let trained: Vec<Tage> = traces
        .iter()
        .map(|tr| {
            let mut t = Tage::new(cfg.clone());
            for r in tr.records() {
                if is_cond(r) {
                    let l = t.lookup(r.pc());
                    t.commit(&l, r.taken(), UpdateMode::Full);
                }
                t.update_history(r);
            }
            t
        })
        .collect();
    let conds = count_cond(traces);
    let records = count_records(traces);
    let mut in_commit = f64::INFINITY;
    let [hist, full, _] = fastest_each(
        || trained.clone(),
        |variant, mut tages: Vec<Tage>| {
            let pass = PASSES_3[variant];
            let mut t_commit = Duration::ZERO;
            for (t, tr) in tages.iter_mut().zip(traces) {
                for r in tr.records() {
                    if pass != Pass::Bare && is_cond(r) {
                        let l = t.lookup(r.pc());
                        if pass == Pass::TimedTrain {
                            let started = Instant::now();
                            t.commit(&l, r.taken(), UpdateMode::Full);
                            t_commit += started.elapsed();
                        } else {
                            t.commit(&l, r.taken(), UpdateMode::Full);
                        }
                    }
                    t.update_history(r);
                }
            }
            if pass == Pass::TimedTrain {
                in_commit = in_commit.min(t_commit.as_nanos() as f64);
            }
            tages
        },
    );
    let (lookup, commit) = lookup_and_train(hist, full, in_commit, conds);
    ((lookup, commit, per(hist, records)), trained)
}

/// Time between two clock reads with nothing between them: subtracted
/// from per-call timings.
fn clock_ns() -> f64 {
    const N: u32 = 100_000;
    let mut empty = Duration::ZERO;
    for _ in 0..N {
        let started = Instant::now();
        empty += started.elapsed();
    }
    empty.as_nanos() as f64 / f64::from(N)
}

/// `tage.*`, `tage_inf.*`, `sc.*`, `loop.*`.
pub fn tage_layer(traces: &[Trace], out: &mut Outcome) {
    let conds = count_cond(traces);
    let ((lookup, commit, history), trained) = tage_passes(&TageConfig::cbp64k(), traces);
    let note = format!("per call, {conds} conditional branches");
    out.push("tage.lookup_ns", lookup, "ns", note.clone());
    out.push("tage.commit_ns", commit, "ns", note.clone());
    out.push("tage.history_ns", history, "ns", "update_history per record");
    let allocs: u64 = trained.iter().map(Tage::allocations).sum();
    let fails: u64 = trained.iter().map(Tage::alloc_failures).sum();
    out.push(
        "tage.alloc_fail_ratio",
        ratio(fails, allocs + fails),
        "ratio",
        format!("{fails} failed of {} allocation attempts", allocs + fails),
    );
    drop(trained);

    let ((lookup, commit, _), trained) = tage_passes(&TageConfig::infinite(), traces);
    out.push("tage_inf.lookup_ns", lookup, "ns", note.clone());
    out.push("tage_inf.commit_ns", commit, "ns", note.clone());
    let entries: usize = trained.iter().map(Tage::infinite_entries).sum();
    out.push(
        "tage_inf.entries",
        entries as f64,
        "count",
        "summed over traces after one training pass",
    );
    drop(trained);

    sc_layer(traces, conds, out);
    loop_layer(traces, conds, out);
}

/// The direction the auxiliary predictors are told TAGE predicted: the
/// outcome, flipped on every 16th conditional branch.
fn stand_in_tage_pred(r: &BranchRecord, i: usize) -> bool {
    r.taken() ^ (i % 16 == 15)
}

/// What a component replay pass does per conditional branch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Nothing (history and bookkeeping only).
    Bare,
    /// Lookup and train.
    Full,
    /// Lookup and train, with a clock read around each train call.
    TimedTrain,
}

const PASSES_3: [Pass; 3] = [Pass::Bare, Pass::Full, Pass::TimedTrain];

/// Per-call `(lookup, train)` ns from the three [`Pass`] timings and the
/// time spent inside train calls (fastest over the rounds): train is timed
/// per call, lookup is the rest of what a full pass adds. A lookup-only
/// pass would not isolate the lookup, since training changes what later
/// lookups find.
fn lookup_and_train(bare: f64, full: f64, in_train: f64, calls: usize) -> (f64, f64) {
    let train = (per(in_train, calls) - clock_ns()).max(0.0);
    ((per(full - bare, calls) - train).max(0.0), train)
}

fn sc_layer(traces: &[Trace], conds: usize, out: &mut Outcome) {
    let cfg = TslConfig::cbp64k();
    let cap = cfg.sc_history_lengths.iter().copied().max().unwrap_or(0) + 64;
    let fresh = || {
        (
            StatisticalCorrector::new(cfg.sc_index_bits, &cfg.sc_history_lengths),
            HistoryBuffer::new(cap),
        )
    };
    let run = |state: &mut (StatisticalCorrector, HistoryBuffer), tr: &Trace, pass: Pass| {
        let (sc, ghr) = state;
        let mut in_train = Duration::ZERO;
        for (i, r) in tr.records().iter().enumerate() {
            if pass != Pass::Bare && is_cond(r) {
                let tp = stand_in_tage_pred(r, i);
                let l = sc.lookup(r.pc(), tp);
                if pass == Pass::TimedTrain {
                    let started = Instant::now();
                    black_box(sc.arbitrate(&l, tp));
                    sc.train(&l, r.taken());
                    in_train += started.elapsed();
                } else {
                    black_box(sc.arbitrate(&l, tp));
                    sc.train(&l, r.taken());
                }
            }
            let b = history_bit(r);
            sc.update_history(ghr, b);
            ghr.push(b);
        }
        in_train
    };
    let trained: Vec<_> = traces
        .iter()
        .map(|tr| {
            let mut s = fresh();
            run(&mut s, tr, Pass::Full);
            s
        })
        .collect();
    let mut in_train = f64::INFINITY;
    let [bare, full, _] = fastest_each(
        || trained.clone(),
        |variant, mut states: Vec<(StatisticalCorrector, HistoryBuffer)>| {
            let mut t = Duration::ZERO;
            for (st, tr) in states.iter_mut().zip(traces) {
                t += run(st, tr, PASSES_3[variant]);
            }
            if PASSES_3[variant] == Pass::TimedTrain {
                in_train = in_train.min(t.as_nanos() as f64);
            }
            states
        },
    );
    let (lookup, train) = lookup_and_train(bare, full, in_train, conds);
    let note = format!("per call, {conds} conditional branches");
    out.push("sc.lookup_ns", lookup, "ns", note.clone());
    out.push("sc.train_ns", train, "ns", format!("arbitrate + train {note}"));
}

fn loop_layer(traces: &[Trace], conds: usize, out: &mut Outcome) {
    let bits = TslConfig::cbp64k().loop_index_bits;
    let run = |lp: &mut LoopPredictor, tr: &Trace, pass: Pass| {
        let mut in_train = Duration::ZERO;
        for (i, r) in tr.records().iter().enumerate() {
            if !is_cond(r) {
                continue;
            }
            if pass == Pass::Bare {
                black_box(r.pc());
                continue;
            }
            let l = lp.lookup(r.pc());
            let tp = stand_in_tage_pred(r, i);
            if pass == Pass::TimedTrain {
                let started = Instant::now();
                lp.train(&l, r.taken(), tp, tp != r.taken());
                in_train += started.elapsed();
            } else {
                lp.train(&l, r.taken(), tp, tp != r.taken());
            }
        }
        in_train
    };
    let trained: Vec<LoopPredictor> = traces
        .iter()
        .map(|tr| {
            let mut lp = LoopPredictor::new(bits);
            run(&mut lp, tr, Pass::Full);
            lp
        })
        .collect();
    let mut in_train = f64::INFINITY;
    let [bare, full, _] = fastest_each(
        || trained.clone(),
        |variant, mut lps: Vec<LoopPredictor>| {
            let mut t = Duration::ZERO;
            for (lp, tr) in lps.iter_mut().zip(traces) {
                t += run(lp, tr, PASSES_3[variant]);
            }
            if PASSES_3[variant] == Pass::TimedTrain {
                in_train = in_train.min(t.as_nanos() as f64);
            }
            lps
        },
    );
    let (lookup, train) = lookup_and_train(bare, full, in_train, conds);
    let note = format!("per call, {conds} conditional branches");
    out.push("loop.lookup_ns", lookup, "ns", note.clone());
    out.push("loop.train_ns", train, "ns", note);
}

// ---------------------------------------------------------------------
// core: RCR, pattern sets, prefetch queue
// ---------------------------------------------------------------------

/// What the core probes replay: per record, the context the RCR reports
/// and (for context branches) the upcoming context to prefetch.
struct CoreEvents {
    /// Per conditional branch: current context, pattern tags (one per
    /// LLBP history length), outcome.
    conds: Vec<(u64, Vec<u32>, bool)>,
    /// Per record: cycle and the context to prefetch, if any (an upcoming
    /// context already seen as a current one).
    ticks: Vec<(u64, Option<u64>)>,
    pushes: usize,
}

fn new_rcr(p: &LlbpParams) -> RollingContextRegister {
    RollingContextRegister::new(p.window, p.prefetch_distance, p.cid_bits, p.history_kind)
}

fn core_events(p: &LlbpParams, tr: &Trace) -> CoreEvents {
    let cap = p.history_lengths.iter().copied().max().unwrap_or(0) + 64;
    let mut ghr = HistoryBuffer::new(cap);
    let mut tag0: Vec<FoldedHistory> =
        p.history_lengths.iter().map(|&l| FoldedHistory::new(l, p.tag_bits)).collect();
    let mut tag1: Vec<FoldedHistory> =
        p.history_lengths.iter().map(|&l| FoldedHistory::new(l, (p.tag_bits - 1).max(1))).collect();
    let mask = (1u32 << p.tag_bits) - 1;
    let mut rcr = new_rcr(p);
    let mut known = std::collections::HashSet::new();
    let mut ev = CoreEvents { conds: Vec::new(), ticks: Vec::with_capacity(tr.len()), pushes: 0 };
    let mut instructions = 0u64;
    for r in tr.records() {
        if is_cond(r) {
            let tags = (0..tag0.len())
                .map(|i| {
                    let pc = (r.pc() >> 2) ^ (i as u64).rotate_left(7);
                    (pc as u32 ^ tag0[i].value() ^ (tag1[i].value() << 1)) & mask
                })
                .collect();
            ev.conds.push((rcr.current_cid(), tags, r.taken()));
        }
        let b = history_bit(r);
        for f in tag0.iter_mut().chain(tag1.iter_mut()) {
            f.update_before_push(&ghr, b);
        }
        ghr.push(b);
        instructions += r.instructions();
        let mut prefetch = None;
        if rcr.observes(r) {
            rcr.push(r.pc());
            ev.pushes += 1;
            let upcoming = rcr.prefetch_cid();
            known.insert(rcr.current_cid());
            prefetch = known.contains(&upcoming).then_some(upcoming);
        }
        ev.ticks.push((instructions / p.fetch_width.max(1), prefetch));
    }
    ev
}

/// Pattern sets the match/allocate probes index by context.
const PB_SETS: usize = 1024;

/// `rcr.push_ns`, `pb.match_ns`, `pb.alloc_ns`, `prefetch.issue_ns`,
/// `prefetch.drain_ns`.
pub fn core_layer(traces: &[Trace], out: &mut Outcome) {
    let p = LlbpParams::default();
    let records = count_records(traces);

    // RCR: observe-only pass vs observe + push.
    let [observe, push] = fastest_each(
        || new_rcr(&p),
        |variant, mut rcr: RollingContextRegister| {
            for tr in traces {
                for r in tr.records() {
                    if rcr.observes(r) && variant == 1 {
                        rcr.push(r.pc());
                    }
                }
            }
            black_box(rcr.current_cid());
        },
    );
    let events: Vec<CoreEvents> = traces.iter().map(|tr| core_events(&p, tr)).collect();
    let pushes: usize = events.iter().map(|e| e.pushes).sum();
    out.push(
        "rcr.push_ns",
        per(push - observe, pushes),
        "ns",
        format!("{pushes} context-branch pushes"),
    );

    // Pattern sets: populate one set per context slot with the workload's
    // own tags, then time match and allocate passes over the same stream.
    let empty = PatternSet::new(p.patterns_per_set, p.num_buckets, p.history_lengths.len());
    let nlen = p.history_lengths.len();
    let populated: Vec<Vec<PatternSet>> = events
        .iter()
        .map(|ev| {
            let mut sets = vec![empty.clone(); PB_SETS];
            for (i, (cid, tags, taken)) in ev.conds.iter().enumerate() {
                let len = i % nlen;
                sets[(*cid as usize) % PB_SETS].allocate(
                    len as u8,
                    tags[len],
                    *taken,
                    p.counter_bits,
                );
            }
            sets
        })
        .collect();
    let conds: usize = events.iter().map(|e| e.conds.len()).sum();
    let match_ns = fastest(
        || (),
        |()| {
            for (ev, sets) in events.iter().zip(&populated) {
                for (cid, tags, _) in &ev.conds {
                    black_box(sets[(*cid as usize) % PB_SETS].find_longest(tags));
                }
            }
        },
    );
    let alloc_ns = fastest(
        || populated.clone(),
        |mut all: Vec<Vec<PatternSet>>| {
            for (ev, sets) in events.iter().zip(all.iter_mut()) {
                for (i, (cid, tags, taken)) in ev.conds.iter().enumerate() {
                    let len = (i * 7 + 3) % nlen;
                    sets[(*cid as usize) % PB_SETS].allocate(
                        len as u8,
                        tags[len],
                        *taken,
                        p.counter_bits,
                    );
                }
            }
            black_box(&all);
        },
    );
    let note = format!("per call on populated sets, {conds} conditional branches");
    out.push("pb.match_ns", per(match_ns, conds), "ns", format!("find_longest {note}"));
    out.push("pb.alloc_ns", per(alloc_ns, conds), "ns", format!("allocate {note}"));

    // Prefetch queue, variants: the bare replay; + a `drain_ready` poll
    // per record; + issuing each upcoming context the replay has seen
    // before (a stand-in for a context-directory hit).
    let [bare, drain, both] = fastest_each(PrefetchQueue::new, |variant, mut q: PrefetchQueue| {
        for ev in &events {
            for &(now, cid) in &ev.ticks {
                if let (2, Some(cid)) = (variant, cid) {
                    q.issue(cid, now, p.prefetch_delay);
                }
                if variant > 0 {
                    black_box(q.drain_ready(now));
                } else {
                    black_box(now);
                }
            }
        }
        black_box(q.issued());
    });
    let issues: usize =
        events.iter().map(|e| e.ticks.iter().filter(|t| t.1.is_some()).count()).sum();
    out.push(
        "prefetch.issue_ns",
        per(both - drain, issues),
        "ns",
        format!("issue incl. draining its entry, {issues} issues"),
    );
    out.push(
        "prefetch.drain_ns",
        per(drain - bare, records),
        "ns",
        format!("drain_ready poll per record, {records} records"),
    );
}

/// The exact LLBP counts (`llbp.*` ratios) summed over `results`.
pub fn llbp_counts(results: &[&SimResult], out: &mut Outcome) {
    let mut s = llbp_core::LlbpStats::default();
    for r in results {
        if let Some(c) = &r.llbp {
            let l = &c.llbp;
            s.predictions += l.predictions;
            s.cd_lookups += l.cd_lookups;
            s.cd_hits += l.cd_hits;
            s.pb_hits += l.pb_hits;
            s.late_prefetches += l.late_prefetches;
            s.good_override += l.good_override;
            s.bad_override += l.bad_override;
            s.both_correct += l.both_correct;
            s.both_wrong += l.both_wrong;
            s.storage_reads += l.storage_reads;
            s.instructions += l.instructions;
        }
    }
    let note = format!("{} LLBP cells", results.len());
    out.push(
        "llbp.cd_hit_ratio",
        ratio(s.cd_hits, s.cd_lookups),
        "ratio",
        format!("CD hits / CD lookups, {note}"),
    );
    out.push(
        "llbp.pb_hit_ratio",
        ratio(s.pb_hits, s.predictions),
        "ratio",
        format!("PB hits / predictions, {note}"),
    );
    out.push(
        "llbp.late_prefetch_ratio",
        ratio(s.late_prefetches, s.pb_hits + s.late_prefetches),
        "ratio",
        format!("late / (PB hits + late), {note}"),
    );
    out.push(
        "llbp.good_override_ratio",
        ratio(s.good_override, s.overrides()),
        "ratio",
        format!("good / all overrides, {note}"),
    );
    out.push(
        "llbp.storage_reads_pki",
        ratio(s.storage_reads * 1000, s.instructions),
        "1/kinst",
        format!("pattern-set reads per 1000 instructions, {note}"),
    );
}
