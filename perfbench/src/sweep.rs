//! `sweep_tsl` / `sweep_llbp`: a cold figure grid over cached traces.
//!
//! Set-up writes the 14 quick-length traces into a fresh private store
//! (traces, no result cells); the campaign then runs the whole grid on the
//! default engine, so every cell is simulated and written back. Set-up
//! and campaign repeat, each time in a new store, until the run's time is
//! spent.

use crate::grid::{self, workload_specs, QUICK_BRANCHES};
use crate::heap::PeakSampler;
use crate::layers;
use crate::pins;
use crate::report::{median, samples, tail, Outcome};
use crate::spans::Tracer;
use crate::Ctx;
use llbp_sim::{MemoStore, SimConfig, SimResult, SweepEngine, SweepReport, SweepSpec};
use llbp_trace::WorkloadSpec;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Which figure's grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Fig. 2: 64K TSL, Inf TAGE, Inf TSL; headline = Inf TSL reduction.
    Fig02,
    /// Fig. 9: 64K TSL, LLBP, LLBP-0Lat, 512K TSL; headline = 512K TSL
    /// reduction (LLBP's own is printed beside it).
    Fig09,
}

impl Figure {
    pub fn grid(self, seed: u64) -> SweepSpec {
        let predictors = match self {
            Figure::Fig02 => grid::fig02_predictors(),
            Figure::Fig09 => grid::fig09_predictors(),
        };
        grid::spec(predictors, workload_specs(seed, QUICK_BRANCHES))
    }

    /// Grid column whose mean reduction over 64K TSL is the headline. On
    /// Fig. 9 it is 512K TSL, not LLBP: at quick length LLBP's mean
    /// reduction is about 1.5% and moves by a fifth of that from seed to
    /// seed, more than a metric's bound may be.
    pub fn headline_column(self) -> usize {
        match self {
            Figure::Fig02 => 2,
            Figure::Fig09 => 3,
        }
    }

    /// The paper's value and the quick preset's value of the headline.
    fn headline_context(self) -> &'static str {
        match self {
            Figure::Fig02 => "Inf TSL vs 64K TSL (paper 36.5; quick preset 12.5)",
            Figure::Fig09 => "512K TSL vs 64K TSL (paper 27.3; quick preset 9.9)",
        }
    }
}

/// Mean 64K TSL MPKI (grid column 0) over the workloads, given the cell
/// at `(workload, column)`.
pub fn mpki_base<'a>(cell: impl Fn(usize, usize) -> &'a SimResult, workloads: usize) -> f64 {
    (0..workloads).map(|w| cell(w, 0).mpki()).sum::<f64>() / workloads as f64
}

/// Mean MPKI reduction (%) of grid column `col` over column 0, as the
/// figure binaries compute it.
pub fn mean_reduction<'a>(
    cell: impl Fn(usize, usize) -> &'a SimResult,
    workloads: usize,
    col: usize,
) -> f64 {
    (0..workloads).map(|w| cell(w, col).mpki_reduction_vs(cell(w, 0))).sum::<f64>()
        / workloads as f64
}

/// Writes the grid's traces (and no result cells) into a fresh store.
fn set_up(dir: &Path, specs: &[WorkloadSpec], mut tracer: Option<&mut Tracer>) -> Arc<MemoStore> {
    let _ = std::fs::remove_dir_all(dir);
    let store = MemoStore::open(dir).expect("private store directory opens");
    for spec in specs {
        let trace = Tracer::maybe(&mut tracer, "trace.generate", 0, || spec.generate());
        let fp = store.trace_fingerprint(spec);
        Tracer::maybe(&mut tracer, "memo.store_trace", 0, || store.store_trace(fp, &trace))
            .expect("trace write into the private store");
    }
    Arc::new(store)
}

/// Raw samples of a series of campaigns.
#[derive(Debug, Default)]
struct Campaigns {
    setup_s: Vec<f64>,
    campaign_s: Vec<f64>,
    /// Per campaign: simulated records ÷ the cells' summed simulation
    /// walls (one worker's rate; engine, memo and journal time excluded).
    mbr_per_s: Vec<f64>,
    cell_ms: Vec<f64>,
    /// Per campaign (with its set-up): peak heap in use, MiB.
    heap_mib: Vec<f64>,
    /// Per campaign: simulated-cell wall summed over cells, divided by the
    /// engine's workers (seconds), for the engine's self-time estimate.
    sim_s: Vec<f64>,
    memo_hits: u64,
    cells: u64,
    reference: Option<SweepReport>,
    /// Store of the last campaign, kept for the traced run's layer probes.
    last_store: Option<Arc<MemoStore>>,
}

fn run_campaigns(
    ctx: &Ctx,
    grid: &SweepSpec,
    heap: &PeakSampler,
    budget_s: f64,
    min: usize,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Campaigns {
    let mut c = Campaigns::default();
    let mut spent = 0.0;
    let workloads = grid.workloads.len();
    for n in 0u64.. {
        if n >= min as u64 && spent >= budget_s {
            break;
        }
        let dir = ctx.scratch.join(format!("sweep-{n}"));
        if let Some(prev) = c.last_store.take() {
            let _ = std::fs::remove_dir_all(prev.root());
        }
        heap.take();
        let t = Instant::now();
        let store = match tracer.as_deref_mut() {
            Some(tr) => tr.span("setup", 0, |tr| set_up(&dir, &grid.workloads, Some(tr))),
            None => set_up(&dir, &grid.workloads, None),
        };
        c.setup_s.push(t.elapsed().as_secs_f64());
        crate::report::settle(store.root());

        let engine = SweepEngine::new().with_store(Arc::clone(&store));
        let t = Instant::now();
        let result = Tracer::maybe(&mut tracer, "engine.campaign", n, || engine.try_run(grid));
        let wall = t.elapsed().as_secs_f64();
        spent += wall;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.check(false, || format!("campaign {n} failed to start: {e}"));
                c.last_store = Some(store);
                continue;
            }
        };
        out.check(report.memo_hits == 0 && report.memo_misses == grid.num_jobs() as u64, || {
            format!(
                "campaign {n}: {} memo hits, {} misses (sweeps must simulate every cell)",
                report.memo_hits, report.memo_misses
            )
        });
        out.check(report.cache_misses == 0 && report.trace_disk_hits == workloads as u64, || {
            format!(
                "campaign {n}: traces not served from the store ({} generated)",
                report.cache_misses
            )
        });
        let failed: Vec<usize> = report.failed.iter().map(|e| e.index).collect();
        for (i, job) in report.jobs.iter().enumerate() {
            let same = c.reference.as_ref().is_none_or(|r| r.jobs[i].result == job.result);
            out.check(!failed.contains(&i) && same, || {
                format!("campaign {n} cell {i}: failed or differs from campaign 0")
            });
        }
        c.campaign_s.push(wall);
        c.heap_mib.push(heap.take());
        c.memo_hits += report.memo_hits;
        c.cells += report.jobs.len() as u64;
        c.cell_ms.extend(report.jobs.iter().map(|j| j.stats.wall.as_secs_f64() * 1e3));
        let sim: f64 = report.jobs.iter().map(|j| j.stats.wall.as_secs_f64()).sum();
        c.mbr_per_s.push(report.total_branches() as f64 / sim / 1e6);
        c.sim_s.push(sim / engine.workers() as f64);
        if c.reference.is_none() {
            c.reference = Some(report);
        }
        c.last_store = Some(store);
    }
    c
}

/// Recomputes one cell (chosen by the seed) straight through
/// `SimConfig::run` on a freshly generated trace and compares it with the
/// campaign's result. Both sides share the simulator; [`pins::check`]
/// compares the simulator itself with committed counts.
fn spot_check(ctx: &Ctx, grid: &SweepSpec, reference: &SweepReport, out: &mut Outcome) {
    let mut rng = grid::Rng::new(ctx.seed ^ 0xC4EC);
    let (w, p) = (rng.below(grid.workloads.len()), rng.below(grid.predictors.len()));
    let trace = grid.workloads[w].generate();
    let direct: SimResult = SimConfig::default().run(grid.predictors[p].clone(), &trace);
    out.check(&direct == reference.get(w, p), || {
        format!("cell ({w}, {p}) differs from a direct SimConfig::run")
    });
}

pub fn run(ctx: &Ctx, figure: Figure) -> Outcome {
    let mut out = Outcome::default();
    let grid = figure.grid(ctx.seed);
    let workloads = grid.workloads.len();

    // Untraced campaigns give the end-to-end numbers (half the time when
    // a traced half follows).
    let (budget, min) = if ctx.trace { (ctx.seconds / 2.0, 2) } else { (ctx.seconds, 3) };
    let heap = PeakSampler::start();
    if ctx.trace {
        // The process's first campaign pays for fresh memory; discard one
        // so it does not bias the traced-minus-untraced difference.
        let _ = run_campaigns(ctx, &grid, &heap, 0.0, 1, None, &mut out);
    }
    let plain = run_campaigns(ctx, &grid, &heap, budget, min, None, &mut out);
    let Some(reference) = &plain.reference else {
        out.check(false, || "no campaign completed".into());
        return out;
    };
    spot_check(ctx, &grid, reference, &mut out);
    pins::check(ctx.seed, &grid.predictors, &mut out);

    let cells = grid.num_jobs();
    if !ctx.trace {
        let n = plain.campaign_s.len();
        out.push(
            "setup_s",
            median(&plain.setup_s),
            "s",
            format!(
                "median of {n} set-ups (14 traces generated, encoded, stored): {}",
                samples(&plain.setup_s)
            ),
        );
        out.push(
            "campaign_s",
            median(&plain.campaign_s),
            "s",
            format!("median of {n} campaigns, {cells} cells each: {}", samples(&plain.campaign_s)),
        );
        out.push(
            "sim_mbr_per_s",
            median(&plain.mbr_per_s),
            "Mrec/s",
            format!(
                "median of {n} campaigns of records / summed cell simulation walls: {}",
                samples(&plain.mbr_per_s)
            ),
        );
        // Per campaign the peak is bimodal: it depends on whether the two
        // workers happen to hold the two largest cells at once. The median
        // over campaigns is the typical campaign's peak.
        out.push(
            "peak_heap_mib",
            median(&plain.heap_mib),
            "MiB",
            format!(
                "median over campaigns of each one's peak heap in use (sampled every 10 ms): {}",
                samples(&plain.heap_mib)
            ),
        );
        out.push(
            "cell_p50_ms",
            median(&plain.cell_ms),
            "ms",
            format!("per-cell simulation wall, n={}", plain.cell_ms.len()),
        );
        let cell_tail = tail(&plain.cell_ms);
        out.push(
            "cell_tail_ms",
            cell_tail.value,
            "ms",
            format!(
                "p{:.1}, n={}, {} beyond",
                cell_tail.percentile,
                plain.cell_ms.len(),
                cell_tail.beyond
            ),
        );
        out.push(
            "mpki_base",
            mpki_base(|w, p| reference.get(w, p), workloads),
            "MPKI",
            "mean 64K TSL MPKI (paper 2.91; quick preset 7.44)",
        );
        out.push(
            "headline_red_pct",
            mean_reduction(|w, p| reference.get(w, p), workloads, figure.headline_column()),
            "%",
            figure.headline_context(),
        );
        if figure == Figure::Fig09 {
            out.push(
                "llbp_red_pct",
                mean_reduction(|w, p| reference.get(w, p), workloads, 1),
                "%",
                "LLBP vs 64K TSL (paper 8.9; quick preset 1.6); readable only",
            );
        }
        return out;
    }

    // Traced half: the same campaigns with spans, then the layer probes.
    let mut tracer = Tracer::default();
    let traced = run_campaigns(ctx, &grid, &heap, budget, min, Some(&mut tracer), &mut out);
    let store = traced.last_store.as_ref().expect("a traced campaign ran");
    let memo = layers::memo_layer(store, &grid, &ctx.scratch, &mut out);
    out.push(
        "memo.hit_ratio",
        traced.memo_hits as f64 / traced.cells as f64,
        "ratio",
        format!("memo hits / cells over {} campaigns", traced.campaign_s.len()),
    );
    let self_ms: Vec<f64> = traced
        .campaign_s
        .iter()
        .zip(&traced.sim_s)
        .map(|(wall, sim)| {
            (wall - sim) * 1e3 - cells as f64 * (memo.fingerprint_us + memo.store_us) / 1e3
        })
        .collect();
    out.push(
        "engine.self_ms_per_req",
        median(&self_ms),
        "ms",
        "campaign span - simulation walls / workers - memo fingerprint+store per cell",
    );
    let share: Vec<f64> =
        traced.campaign_s.iter().zip(&traced.sim_s).map(|(w, s)| 100.0 * s / w).collect();
    out.push(
        "engine.sim_share_pct",
        median(&share),
        "%",
        "simulated-cell wall / workers / campaign span",
    );
    out.push(
        "trace_overhead.campaign_s",
        median(&traced.campaign_s) - median(&plain.campaign_s),
        "s",
        "traced minus untraced median campaign",
    );
    let llbp: Vec<&SimResult> = match figure {
        Figure::Fig09 => (0..workloads).map(|w| reference.get(w, 1)).collect(),
        Figure::Fig02 => Vec::new(),
    };
    let llbp = (!llbp.is_empty()).then_some(llbp.as_slice());
    crate::probe_layers(ctx, &grid, store, llbp, &mut tracer, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::DEFAULT_SEED;

    /// With the default seed the grids are `fig02_mpki_limits --quick` and
    /// `fig09_mpki_reduction --quick`, whose tables print a mean 64K TSL
    /// MPKI of 7.44 and mean reductions of 12.5% (Inf TSL), 1.6% (LLBP) and
    /// 9.9% (512K TSL).
    #[test]
    fn default_seed_reproduces_the_quick_figures() {
        for (figure, reductions) in
            [(Figure::Fig02, vec![(2, "12.5")]), (Figure::Fig09, vec![(1, "1.6"), (3, "9.9")])]
        {
            let grid = figure.grid(DEFAULT_SEED);
            let report = SweepEngine::new().try_run(&grid).expect("a storeless sweep starts");
            assert!(report.is_complete());
            let n = grid.workloads.len();
            assert_eq!(format!("{:.2}", mpki_base(|w, p| report.get(w, p), n)), "7.44");
            for (col, printed) in reductions {
                let red = mean_reduction(|w, p| report.get(w, p), n, col);
                assert_eq!(format!("{red:.1}"), printed, "{figure:?} column {col}");
            }
        }
    }
}
