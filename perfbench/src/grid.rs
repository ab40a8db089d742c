//! Workload inputs: seeds, the figure grids, and the serve probe's
//! sub-grid request stream. Everything here is a pure function of the
//! benchmark seed.

use llbp_core::LlbpParams;
use llbp_sim::{PredictorKind, SimConfig, SweepSpec};
use llbp_trace::{Workload, WorkloadSpec};
use std::collections::HashSet;

/// The seed that keeps every workload preset's own seed, so the sweep
/// grids equal `fig02_mpki_limits --quick` / `fig09_mpki_reduction --quick`.
pub const DEFAULT_SEED: u64 = 0;

/// Branch records per trace on the sweep workloads (the `--quick` preset).
pub const QUICK_BRANCHES: usize = 150_000;

/// Sub-grid shape of one serve-probe request: predictors × workloads.
pub const SUB_PREDICTORS: usize = 1;
/// See [`SUB_PREDICTORS`].
pub const SUB_WORKLOADS: usize = 3;

/// SplitMix64: a tiny deterministic generator for drawing requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices below `n`, in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// Derives the per-workload generator seed for a non-default benchmark
/// seed (distinct per workload and per benchmark seed).
fn workload_seed(seed: u64, index: usize) -> u64 {
    Rng::new(seed ^ ((index as u64 + 1) << 48)).next_u64()
}

/// The 14 workload specs at `branches` records for benchmark seed `seed`.
pub fn workload_specs(seed: u64, branches: usize) -> Vec<WorkloadSpec> {
    Workload::ALL
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let spec = WorkloadSpec::named(w).with_branches(branches);
            if seed == DEFAULT_SEED {
                spec
            } else {
                spec.with_seed(workload_seed(seed, i))
            }
        })
        .collect()
}

/// Fig. 2's predictor axis: 64K TSL, Inf TAGE, Inf TSL.
pub fn fig02_predictors() -> Vec<PredictorKind> {
    vec![PredictorKind::Tsl64K, PredictorKind::InfTage, PredictorKind::InfTsl]
}

/// Fig. 9's predictor axis: 64K TSL, LLBP, LLBP-0Lat, 512K TSL.
pub fn fig09_predictors() -> Vec<PredictorKind> {
    vec![
        PredictorKind::Tsl64K,
        PredictorKind::Llbp(LlbpParams::default()),
        PredictorKind::Llbp(LlbpParams::zero_latency()),
        PredictorKind::TslScaled(8),
    ]
}

/// The union of both figures' predictor axes (64K TSL first).
pub fn union_predictors() -> Vec<PredictorKind> {
    let mut all = fig02_predictors();
    all.extend(fig09_predictors().into_iter().skip(1));
    all
}

/// Short metric suffix of each union-grid predictor, in
/// [`union_predictors`] order.
pub const KIND_NAMES: [&str; 6] = ["tsl64k", "inf_tage", "inf_tsl", "llbp", "llbp_0lat", "tsl512k"];

/// A grid over `predictors` × `workloads` with the default simulation
/// parameters.
pub fn spec(predictors: Vec<PredictorKind>, workloads: Vec<WorkloadSpec>) -> SweepSpec {
    SweepSpec::new(predictors, workloads, SimConfig::default())
}

/// A sub-grid request: which predictor and workload rows (indices into a
/// grid's axes) it asks for, in request order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    pub predictors: Vec<usize>,
    pub workloads: Vec<usize>,
}

impl Request {
    /// The request as a sweep over a grid's kinds and specs.
    pub fn spec(&self, kinds: &[PredictorKind], specs: &[WorkloadSpec]) -> SweepSpec {
        spec(
            self.predictors.iter().map(|&p| kinds[p].clone()).collect(),
            self.workloads.iter().map(|&w| specs[w].clone()).collect(),
        )
    }
}

/// Draws distinct fixed-shape sub-grid requests from the seed. Distinct,
/// so the daemon never answers one from a finished campaign's ticket.
#[derive(Debug)]
pub struct RequestStream {
    rng: Rng,
    seen: HashSet<Request>,
    num_predictors: usize,
    num_workloads: usize,
}

impl RequestStream {
    pub fn new(seed: u64, num_predictors: usize, num_workloads: usize) -> Self {
        Self {
            rng: Rng::new(seed ^ 0x005E_ED0F_4E9E_u64),
            seen: HashSet::new(),
            num_predictors,
            num_workloads,
        }
    }

    /// The next sub-grid request.
    pub fn sub_grid(&mut self) -> Request {
        loop {
            let request = Request {
                predictors: self.rng.distinct(self.num_predictors, SUB_PREDICTORS),
                workloads: self.rng.distinct(self.num_workloads, SUB_WORKLOADS),
            };
            if self.seen.insert(request.clone()) {
                return request;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_keeps_presets_and_other_seeds_differ() {
        let preset = workload_specs(DEFAULT_SEED, 1000);
        assert_eq!(preset[0], WorkloadSpec::named(Workload::ALL[0]).with_branches(1000));
        let a = workload_specs(7, 1000);
        let b = workload_specs(8, 1000);
        for i in 0..a.len() {
            assert_ne!(a[i].params().seed, preset[i].params().seed);
            assert_ne!(a[i].params().seed, b[i].params().seed);
        }
        let seeds: HashSet<u64> = a.iter().map(|s| s.params().seed).collect();
        assert_eq!(seeds.len(), a.len(), "distinct per workload");
    }

    #[test]
    fn requests_are_distinct_and_repeatable() {
        let mut s1 = RequestStream::new(3, 6, 14);
        let mut s2 = RequestStream::new(3, 6, 14);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let r = s1.sub_grid();
            assert_eq!(r, s2.sub_grid());
            assert_eq!((r.predictors.len(), r.workloads.len()), (SUB_PREDICTORS, SUB_WORKLOADS));
            assert!(seen.insert(r));
        }
    }
}
