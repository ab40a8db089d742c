//! Extending the framework: plugging a custom predictor into the
//! simulator via the [`Predictor`] trait.
//!
//! This example implements a classic gshare predictor from the crate's
//! building blocks (`bputil`), runs it against TAGE-SC-L on the same
//! trace, and reports both — the same way a researcher would evaluate a
//! new design inside this framework.
//!
//! ```sh
//! cargo run --release --example custom_predictor
//! ```

use llbp_repro::bputil::counter::SatCounter;
use llbp_repro::bputil::history::HistoryBuffer;
use llbp_repro::prelude::*;
use llbp_repro::tage::{PredictionInfo, Predictor, ProviderKind};
use llbp_repro::trace::{BranchKind, BranchRecord};

/// A classic gshare predictor: PC XOR global history indexes one table of
/// 2-bit counters.
struct Gshare {
    table: Vec<SatCounter>,
    ghr: HistoryBuffer,
    history_bits: u32,
    label: String,
}

impl Gshare {
    fn new(index_bits: u32, history_bits: u32) -> Self {
        Self {
            table: vec![SatCounter::new_signed(2); 1 << index_bits],
            ghr: HistoryBuffer::new(64),
            history_bits,
            label: format!("gshare-{}k", (1u32 << index_bits) / 1024),
        }
    }

    fn index(&self, pc: u64) -> usize {
        let hist = self.ghr.fold(self.history_bits as usize, self.history_bits);
        ((pc >> 2) ^ u64::from(hist)) as usize & (self.table.len() - 1)
    }
}

impl Predictor for Gshare {
    fn step(&mut self, pc: u64, taken: bool) -> PredictionInfo {
        let i = self.index(pc);
        let pred = self.table[i].taken();
        self.table[i].update(taken);
        PredictionInfo::from_provider(pred, ProviderKind::Bimodal)
    }

    fn update_history(&mut self, record: &BranchRecord) {
        if record.kind() == BranchKind::Conditional {
            self.ghr.push(record.taken());
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn storage_bits(&self) -> u64 {
        self.table.len() as u64 * 2
    }
}

fn main() {
    let trace = WorkloadSpec::named(Workload::Tpcc).with_branches(300_000).generate();
    let cfg = SimConfig::default();

    let mut gshare = Gshare::new(14, 12); // 16K entries, 12-bit history
    let gshare_result = cfg.run_predictor(&mut gshare, &trace);
    let tsl = cfg.run(PredictorKind::Tsl64K, &trace);

    println!("{:12} {:>8}  {:>10}", "predictor", "MPKI", "bits");
    for r in [&gshare_result, &tsl] {
        println!("{:12} {:>8.3}", r.label, r.mpki());
    }
    println!(
        "\nTAGE-SC-L beats gshare by {:.1}% MPKI — three decades of branch \
         prediction research at work.",
        gshare_result.mpki() / tsl.mpki() * 100.0 - 100.0
    );
}
