//! The repository benchmark: closed-loop workloads of one caller each
//! (`sweep_tsl`, `sweep_llbp`), their end-to-end metrics,
//! and a traced run with per-layer metrics. See `perfbench/README.md` for
//! the workloads, the metrics and which layer metric should move which
//! end-to-end metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_tsl --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones).

mod grid;
mod heap;
mod layers;
mod pins;
mod report;
mod serve;
mod spans;
mod sweep;

use llbp_sim::{MemoStore, SimResult, SweepSpec};
use llbp_trace::Trace;
use report::Outcome;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metric names, in `BENCHMARK.json` order.
const END_TO_END: [&str; 6] =
    ["setup_s", "campaign_s", "sim_mbr_per_s", "peak_heap_mib", "mpki_base", "headline_red_pct"];

/// Per-layer metric names, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 47] = [
    "synth.mrec_per_s",
    "trace_io.encode_mib_per_s",
    "trace_io.decode_mib_per_s",
    "memo.fingerprint_us",
    "memo.load_us",
    "memo.store_us",
    "memo.hit_ratio",
    "engine.self_ms_per_req",
    "engine.sim_share_pct",
    "sim.mbr_per_s.tsl64k",
    "sim.mbr_per_s.tsl512k",
    "sim.mbr_per_s.inf_tage",
    "sim.mbr_per_s.inf_tsl",
    "sim.mbr_per_s.llbp",
    "sim.mbr_per_s.llbp_0lat",
    "hist.fold_ns",
    "hist.fold_ref_ns",
    "hist.ghr_push_ns",
    "tage.lookup_ns",
    "tage.commit_ns",
    "tage.history_ns",
    "sc.lookup_ns",
    "sc.train_ns",
    "loop.lookup_ns",
    "loop.train_ns",
    "tage.alloc_fail_ratio",
    "tage_inf.lookup_ns",
    "tage_inf.commit_ns",
    "tage_inf.entries",
    "rcr.push_ns",
    "pb.match_ns",
    "pb.alloc_ns",
    "prefetch.issue_ns",
    "prefetch.drain_ns",
    "llbp.overhead_ns_per_br",
    "llbp.cd_hit_ratio",
    "llbp.pb_hit_ratio",
    "llbp.late_prefetch_ratio",
    "llbp.good_override_ratio",
    "llbp.storage_reads_pki",
    "serve.submit_ms",
    "serve.poll_ms",
    "serve.stream_ms",
    "serve.polls_per_req",
    "serve.useful_poll_ratio",
    "serve.passes_per_req",
    "trace_overhead.campaign_s",
];

/// What one invocation runs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Private scratch directory inside the checkout; removed at exit.
    pub scratch: PathBuf,
}

/// Records of the workload's own traces the component probes replay.
const PROBE_RECORDS: usize = 600_000;
/// Records per predictor kind the `sim.mbr_per_s.*` probe simulates.
const SIM_PROBE_RECORDS: usize = 300_000;

/// The layer probes every traced run ends with, on the workload's own
/// grid and store: trace, backend, history, TAGE, core, the exact LLBP
/// counts (from `llbp` cells when the workload has them, else from the
/// backend probe) and the serve client against a daemon on the
/// workload's store.
pub fn probe_layers(
    ctx: &Ctx,
    grid: &SweepSpec,
    store: &std::sync::Arc<MemoStore>,
    llbp: Option<&[&SimResult]>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let specs = &grid.workloads;
    let per_trace = specs[0].branches().max(1);
    let take = |records: usize| (records / per_trace).clamp(1, specs.len());
    tracer.span("probe.trace", 0, |_| layers::trace_layer(&specs[..take(PROBE_RECORDS)], out));
    let traces: Vec<Trace> = specs[..take(PROBE_RECORDS)].iter().map(|s| s.generate()).collect();
    let sim_llbp =
        tracer.span("probe.sim", 0, |_| layers::sim_layer(&traces[..take(SIM_PROBE_RECORDS)], out));
    tracer.span("probe.history", 0, |_| layers::history_layer(&traces, out));
    tracer.span("probe.tage", 0, |_| layers::tage_layer(&traces, out));
    tracer.span("probe.core", 0, |_| layers::core_layer(&traces, out));
    let sim_refs: Vec<&SimResult> = sim_llbp.iter().collect();
    layers::llbp_counts(llbp.unwrap_or(&sim_refs), out);

    serve::probe(store, grid, ctx.seed, tracer, out);

    let dir = ctx.scratch.parent().unwrap_or(&ctx.scratch).join("spans");
    let _ = std::fs::create_dir_all(&dir);
    let run =
        ctx.scratch.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let path = dir.join(format!("{run}-seed{}.jsonl", ctx.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("warning: cannot write spans to {}: {e}", path.display());
    }
    for (name, own) in [
        ("engine.campaign", tracer.ms("engine.campaign")),
        ("serve.request self", tracer.self_ms("serve.request")),
        ("setup self", tracer.self_ms("setup")),
    ] {
        if !own.is_empty() {
            println!("# span {name}: median {:.3} ms, n={}", report::median(&own), own.len());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: grid::DEFAULT_SEED, seconds: 40, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace: {other} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("missing --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: perfbench --workload sweep_tsl|sweep_llbp \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // A knob or cache leaking in from the environment must not pass for a
    // speed change: refuse to measure under any `LLBP_*` variable.
    let leaked: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("LLBP_")).collect();
    if !leaked.is_empty() {
        eprintln!(
            "error: refusing to run with {} set (unset every LLBP_* variable)",
            leaked.join(", ")
        );
        return ExitCode::from(2);
    }
    let run: fn(&Ctx) -> Outcome = match args.workload.as_str() {
        "sweep_tsl" => |ctx| sweep::run(ctx, sweep::Figure::Fig02),
        "sweep_llbp" => |ctx| sweep::run(ctx, sweep::Figure::Fig09),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    println!("{}", report::host_line(&args.workload, args.seed, args.seconds, args.trace));
    let scratch =
        PathBuf::from(".bench_run").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx { seed: args.seed, seconds: args.seconds as f64, trace: args.trace, scratch };
    let out = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    let failed_ratio = out.failed_ratio();
    println!(
        "{:<34} {:>14} {:<9} {} failed of {} attempted",
        "failed_ratio", failed_ratio, "ratio", out.failed, out.attempted
    );
    out.print(if args.trace { &PER_LAYER } else { &END_TO_END });
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics the result line carries are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let metrics = &json[json.find("\"end_to_end\"").expect("an end_to_end list")..];
        let declared: Vec<&str> = metrics
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        let ours: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        assert_eq!(declared, ours);
    }
}
