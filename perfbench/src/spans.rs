//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span's self time is its duration minus its direct children's
//! (the benchmark is single-threaded where it records, so children never
//! overlap).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request the span belongs to (spans of one request share it).
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, request, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Runs `f` inside a leaf span when a tracer is given, plainly when not.
    pub fn maybe<T>(
        tracer: &mut Option<&mut Tracer>,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        match tracer {
            Some(t) => t.span(name, request, |_| f()),
            None => f(),
        }
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Self times in milliseconds of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: u64 =
                    self.spans.iter().filter(|c| c.parent == Some(i)).map(Span::ns).sum();
                s.ns().saturating_sub(children) as f64 / 1e6
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let outer = t.ms("outer")[0];
        let inner = t.ms("inner")[0];
        let own = t.self_ms("outer")[0];
        assert!(inner >= 5.0 && outer >= inner);
        assert!((own - (outer - inner)).abs() < 1e-6);
    }
}
