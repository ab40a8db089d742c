//! Figure 11: LLBP ↔ pattern-buffer transfer bandwidth vs PB size,
//! compared with L1-I miss traffic.
//!
//! Paper values: 16-entry PB reads 9.9 bits/inst + 2.2 writes (≈20% of
//! reads); 64 entries −18.9% combined; 256 entries < 8 bits/inst total;
//! the 64-entry PB read traffic is ~41% below L1I↔L2 traffic.

use llbp_bench::{emit, engine, trace_cache, workload_specs, Opts};
use llbp_core::LlbpParams;
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{f1, Table};
use llbp_sim::{L1iCache, PredictorKind, SimConfig};

const PB_SIZES: [usize; 3] = [16, 64, 256];

fn main() {
    let opts = Opts::from_args();
    let set_bits = LlbpParams::default().pattern_set_bits();

    let spec = SweepSpec::new(
        PB_SIZES
            .iter()
            .map(|&pb| PredictorKind::Llbp(LlbpParams::default().with_pb_entries(pb)))
            .collect(),
        workload_specs(&opts),
        SimConfig::default(),
    );
    let cache = trace_cache(&opts);
    let report = llbp_bench::run_sweep_with_cache(&engine(&opts), &spec, &cache);

    let n = opts.workloads.len().max(1) as f64;
    let mut avg_read = [0.0f64; 3];
    let mut avg_write = [0.0f64; 3];
    let mut avg_l1i = 0.0;
    for (i, _w) in opts.workloads.iter().enumerate() {
        for j in 0..PB_SIZES.len() {
            let s = &report.get(i, j).llbp.as_ref().expect("LLBP cell stats").llbp;
            avg_read[j] += s.read_bits_per_inst(set_bits) / n;
            avg_write[j] += s.write_bits_per_inst(set_bits) / n;
        }
        let trace = cache.get_or_generate(&spec.workloads[i]);
        avg_l1i += L1iCache::traffic_per_instruction(&trace) / n;
    }

    println!("# Figure 11 — transfer bandwidth (bits per instruction, mean over workloads)");
    println!(
        "(paper: 16-entry PB 9.9 read + 2.2 write; 64-entry −18.9% combined; \
         256-entry < 8 total; 64-entry reads ≈41% below L1I miss traffic)\n"
    );
    let mut table = Table::new(["config", "read b/inst", "write b/inst", "total b/inst"]);
    for (i, &pb) in PB_SIZES.iter().enumerate() {
        table.row([
            format!("{pb}-entry PB"),
            f1(avg_read[i]),
            f1(avg_write[i]),
            f1(avg_read[i] + avg_write[i]),
        ]);
    }
    table.row(["L1I misses".to_string(), f1(avg_l1i), String::new(), f1(avg_l1i)]);
    println!("{}", table.to_markdown());
    emit(&report, "fig11", &opts);
}
