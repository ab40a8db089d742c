//! Sample statistics, the host record, and the result printer.

use std::fmt::Write as _;
use std::path::Path;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Raw samples, rounded for a note.
pub fn samples(values: &[f64]) -> String {
    values.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" ")
}

/// The highest exact order statistic with at least ten samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// Percentile rank of `value` (share of samples at or below it).
    pub percentile: f64,
    /// Samples strictly beyond `value`.
    pub beyond: usize,
}

/// [`Tail`] of `values`, computed from the raw samples. With fewer than
/// eleven samples the maximum is returned and `beyond` says how few
/// samples backed it.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail { value: 0.0, percentile: 0.0, beyond: 0 };
    }
    let idx = n.saturating_sub(11);
    let idx = if n >= 11 { idx } else { n - 1 };
    Tail { value: v[idx], percentile: 100.0 * (idx + 1) as f64 / n as f64, beyond: n - idx - 1 }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and context printed beside the value.
    pub note: String,
}

/// Collected metrics plus the attempted/failed tally of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable descriptions of every failed check.
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric { name: name.into(), value, unit, note: note.into() });
    }

    /// Counts one checked operation; `ok == false` records a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.violations.len() < 20 {
                self.violations.push(what());
            }
        }
    }

    /// `failed ÷ attempted`.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Prints every metric as a readable line, then the one-line JSON
    /// result holding exactly the metrics named in `keep`.
    pub fn print(&self, keep: &[&str]) {
        for m in &self.metrics {
            println!("{:<34} {:>14} {:<9} {}", m.name, fmt_value(m.value), m.unit, m.note);
        }
        for v in &self.violations {
            println!("# check failed: {v}");
        }
        let mut json = String::new();
        let correct = self.failed == 0 && self.attempted > 0;
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for name in keep {
            let Some(m) = self.metrics.iter().find(|m| m.name == *name) else {
                continue;
            };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            if !first {
                json.push_str(", ");
            }
            first = false;
            let _ =
                write!(json, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, value, m.unit);
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Flushes every file and directory under `dir` to disk. Set-up calls it
/// (untimed) on a store it just filled, so the kernel's writeback of those
/// bytes does not land inside the measured campaign, where each journal
/// `fsync` would wait behind it.
pub fn settle(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            settle(&path);
        } else if let Ok(file) = std::fs::File::open(&path) {
            let _ = file.sync_all();
        }
    }
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The host and code facts every result records.
pub fn host_line(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    format!(
        "# host: workload={workload} seed={seed} seconds={seconds} trace={} nproc={nproc} \
         cpu=\"{cpu}\" rustc=\"{rustc}\" commit={commit} source_digest={:016x}",
        u8::from(trace),
        source_digest(Path::new("."))
    )
}

/// First line of a command's stdout, if it ran successfully.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(str::to_string)
}

/// FNV-1a over the Rust sources and manifests under `crates/` and
/// `perfbench/` (sorted by path): identifies the measured code even in a
/// checkout that is not a git repository.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench/src"), &mut files);
    files.push(root.join("perfbench/Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        for byte in file.to_string_lossy().bytes().chain(std::fs::read(&file).unwrap_or_default()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_are_exact_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        let few = tail(&[1.0, 5.0, 2.0]);
        assert_eq!((few.value, few.beyond), (5.0, 0));
    }
}
