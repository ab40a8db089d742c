//! Committed reference results, so a run checks the simulator against
//! something that does not change with it.
//!
//! [`PINS`] holds every cell of the union grid (both figures' predictors ×
//! the 14 preset workloads at quick length, default seed): instructions
//! and conditional branches per workload, mispredictions per cell. Each run
//! re-simulates one seed-chosen preset workload per predictor of its grid
//! through `SimConfig::run` and compares the counts: a change to predictor
//! behaviour fails the run even though the engine and the direct path
//! would still agree with each other. The test below re-derives the whole
//! table through the engine and prints it on a mismatch.

use crate::grid::{self, union_predictors, workload_specs, Rng, DEFAULT_SEED, QUICK_BRANCHES};
use crate::report::Outcome;
use llbp_sim::{PredictorKind, SimConfig, SimResult};

/// Per preset workload: instructions, conditional branches, and the
/// mispredictions of each predictor in [`union_predictors`] order.
pub const PINS: [(u64, u64, [u64; 6]); 14] = [
    (700628, 74266, [4405, 3705, 3737, 4312, 4299, 3826]),
    (700726, 74513, [7789, 6581, 6561, 7711, 7750, 6932]),
    (702045, 80831, [6634, 5923, 5855, 6555, 6533, 6032]),
    (700873, 74130, [4886, 4290, 4267, 4805, 4811, 4379]),
    (702550, 79590, [4326, 3976, 3955, 4283, 4274, 4043]),
    (700549, 75725, [4454, 3970, 3959, 4369, 4358, 4075]),
    (701880, 76703, [5106, 4497, 4530, 5018, 5022, 4555]),
    (700650, 77875, [6210, 5320, 5313, 6090, 6078, 5447]),
    (701113, 75752, [2448, 2171, 2153, 2419, 2409, 2258]),
    (700801, 78806, [2375, 2173, 2173, 2348, 2346, 2193]),
    (701715, 73654, [5252, 4711, 4688, 5180, 5183, 4809]),
    (699865, 80812, [6509, 5702, 5661, 6450, 6449, 5854]),
    (697955, 77548, [6773, 5532, 5538, 6548, 6501, 5784]),
    (700460, 75357, [5865, 5215, 5158, 5748, 5718, 5366]),
];

/// `(instructions, conditional branches, mispredictions)` of a cell.
type Counts = (u64, u64, u64);

fn counts(r: &SimResult) -> Counts {
    (r.instructions, r.conditional_branches, r.mispredictions)
}

fn pinned(workload: usize, predictor: usize) -> Counts {
    let (instructions, branches, mispredictions) = PINS[workload];
    (instructions, branches, mispredictions[predictor])
}

/// For each of `predictors`, simulates one preset workload drawn from
/// `seed` at the default seed and checks its counts against [`PINS`].
pub fn check(seed: u64, predictors: &[PredictorKind], out: &mut Outcome) {
    let union = union_predictors();
    let specs = workload_specs(DEFAULT_SEED, QUICK_BRANCHES);
    let mut rng = Rng::new(seed ^ 0x0091_75E5);
    for kind in predictors {
        let Some(p) = union.iter().position(|k| k == kind) else {
            out.check(false, || format!("{kind:?} has no pinned cells"));
            continue;
        };
        let w = rng.below(specs.len());
        let got = counts(&SimConfig::default().run(kind.clone(), &specs[w].generate()));
        out.check(got == pinned(w, p), || {
            format!(
                "preset cell ({}, workload {w}) gives {got:?}, pinned {:?}",
                grid::KIND_NAMES[p],
                pinned(w, p)
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_sim::SweepEngine;

    /// Every pinned cell equals what the engine computes for the default
    /// seed's union grid. On a mismatch the test prints the table the
    /// simulator gives now.
    #[test]
    fn pins_equal_the_default_union_grid() {
        let spec = grid::spec(union_predictors(), workload_specs(DEFAULT_SEED, QUICK_BRANCHES));
        let report = SweepEngine::new().try_run(&spec).expect("a storeless sweep starts");
        assert!(report.is_complete());
        let mut stale = false;
        let mut table = String::new();
        for w in 0..spec.workloads.len() {
            let row: Vec<Counts> =
                (0..spec.predictors.len()).map(|p| counts(report.get(w, p))).collect();
            stale |= row.iter().enumerate().any(|(p, &got)| got != pinned(w, p));
            let (instructions, branches, _) = row[0];
            let mispredictions: Vec<String> = row.iter().map(|c| c.2.to_string()).collect();
            table +=
                &format!("    ({instructions}, {branches}, [{}]),\n", mispredictions.join(", "));
        }
        assert!(!stale, "PINS is stale; the simulator now gives:\n[\n{table}]");
    }
}
