//! Figure 12: dynamic energy of the LLBP designs relative to 64K TSL,
//! from per-access energies (Table III model) × measured access counts.
//!
//! Paper values: all LLBP structures combined ≈51–57% of 64K TSL's
//! energy; the 64-entry PB is the optimum; total LLBP ≈1.53× the
//! baseline vs 4.58× for a 512K TSL.

use llbp_bench::{emit, engine, workload_specs, Opts};
use llbp_core::LlbpParams;
use llbp_sim::energy::TSL64K_BITS;
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{f2, Table};
use llbp_sim::{EnergyModel, PredictorKind, SimConfig};

const PB_SIZES: [usize; 3] = [16, 64, 256];

fn main() {
    let opts = Opts::from_args();
    let model = EnergyModel::default();

    let spec = SweepSpec::new(
        PB_SIZES
            .iter()
            .map(|&pb| PredictorKind::Llbp(LlbpParams::default().with_pb_entries(pb)))
            .collect(),
        workload_specs(&opts),
        SimConfig::default(),
    );
    let report = llbp_bench::run_sweep(&engine(&opts), &spec);

    println!("# Figure 12 — relative dynamic energy (baseline 64K TSL = 1.0)");
    println!(
        "(paper: LLBP structures ≈0.51–0.57; LLBP total ≈1.53×; 512K TAGE ≈4.58×; \
         64-entry PB optimal)\n"
    );
    let mut table = Table::new(["config", "TSL", "PB", "CD", "LLBP", "total", "LLBP structures"]);
    for (i, &pb) in PB_SIZES.iter().enumerate() {
        let params = LlbpParams::default().with_pb_entries(pb);
        let n = opts.workloads.len().max(1) as f64;
        let (mut pb_e, mut cd_e, mut llbp_e) = (0.0, 0.0, 0.0);
        for (w, _) in opts.workloads.iter().enumerate() {
            let stats = &report.get(w, i).llbp.as_ref().expect("LLBP cell stats").llbp;
            let e = model.fig12(stats, &params, pb);
            pb_e += e.pb / n;
            cd_e += e.cd / n;
            llbp_e += e.llbp / n;
        }
        table.row([
            format!("{pb}-entry PB"),
            f2(1.0),
            f2(pb_e),
            f2(cd_e),
            f2(llbp_e),
            f2(1.0 + pb_e + cd_e + llbp_e),
            f2(pb_e + cd_e + llbp_e),
        ]);
    }
    let big = EnergyModel::default().relative_energy(8.0 * TSL64K_BITS);
    table.row([
        "512KiB TAGE".to_string(),
        f2(big),
        String::new(),
        String::new(),
        String::new(),
        f2(big),
        String::new(),
    ]);
    println!("{}", table.to_markdown());
    emit(&report, "fig12", &opts);
}
