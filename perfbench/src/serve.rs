//! The serve-layer probe: an in-process daemon and the traced client.

use crate::grid::RequestStream;
use crate::report::{median, Outcome};
use crate::spans::Tracer;
use llbp_sim::serve::client::{ServeClient, DEFAULT_POLL_MS};
use llbp_sim::serve::{ServeDaemon, ServeHandle, StreamedCell};
use llbp_sim::{MemoStore, SimError, SweepSpec};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// An in-process `llbp-serve` daemon on a loopback port, default knobs.
/// Dropping it stops the accept loop and waits for it to end.
pub struct Daemon {
    pub addr: String,
    handle: ServeHandle,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    pub fn start(store: Arc<MemoStore>) -> std::io::Result<Self> {
        let daemon = ServeDaemon::bind("127.0.0.1:0", store, None)?;
        let addr = format!("tcp://{}", daemon.local_addr());
        let handle = daemon.handle();
        let thread =
            std::thread::Builder::new().name("llbp-serve".into()).spawn(move || daemon.run())?;
        Ok(Self { addr, handle, thread: Some(thread) })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.shutdown();
            let _ = thread.join();
        }
    }
}

/// Counters of the traced client loop.
#[derive(Debug, Default)]
pub struct ClientStats {
    pub requests: u64,
    pub polls: u64,
    pub useful_polls: u64,
    pub passes: u64,
}

/// One request through the client's public calls, with a span around
/// each (`serve.submit`, `serve.stream`, `serve.poll`, and the cadence
/// sleep `serve.wait`) inside a `serve.request` span. Same cadence as the
/// `--server` client: stream, poll, sleep the default poll interval.
pub fn traced_request(
    addr: &str,
    spec: &SweepSpec,
    request: u64,
    tracer: &mut Tracer,
    stats: &mut ClientStats,
) -> Result<Vec<Vec<u8>>, SimError> {
    tracer.span("serve.request", request, |t| {
        let mut client = ServeClient::connect(addr)?;
        let ticket = t.span("serve.submit", request, |_| client.submit(spec))?;
        let total = spec.num_jobs();
        let mut cells: Vec<Vec<u8>> = Vec::with_capacity(total);
        loop {
            stats.polls += 1;
            let batch =
                t.span("serve.stream", request, |_| client.stream_cells(ticket, cells.len()))?;
            let before = cells.len();
            for (index, cell) in batch {
                if index == cells.len() {
                    cells.push(match cell {
                        StreamedCell::Ok(bytes) => bytes,
                        StreamedCell::Failed(class) => class.into_bytes(),
                    });
                }
            }
            if cells.len() > before {
                stats.useful_polls += 1;
            }
            let status = t.span("serve.poll", request, |_| client.poll(ticket))?;
            if let Some(detail) = status.error {
                return Err(SimError::Network { op: "campaign", detail });
            }
            if status.finished && cells.len() >= total {
                stats.passes += u64::from(status.passes);
                stats.requests += 1;
                return Ok(cells);
            }
            t.span("serve.wait", request, |_| {
                std::thread::sleep(Duration::from_millis(DEFAULT_POLL_MS))
            });
        }
    })
}

/// Sub-grid campaigns of the serve probe on workloads without a daemon.
const PROBE_CAMPAIGNS: usize = 12;

/// The serve layer on a workload without a daemon: starts one on the
/// workload's store, sends it traced sub-grid campaigns of the workload's
/// grid, checks the streamed cells byte for byte against the store, and
/// pushes the `serve.*` metrics.
pub fn probe(
    store: &Arc<MemoStore>,
    grid: &SweepSpec,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut stats = ClientStats::default();
    match Daemon::start(Arc::clone(store)) {
        Ok(daemon) => {
            let mut stream = RequestStream::new(seed, grid.predictors.len(), grid.workloads.len());
            for i in 0..PROBE_CAMPAIGNS {
                let spec = stream.sub_grid().spec(&grid.predictors, &grid.workloads);
                let got = traced_request(&daemon.addr, &spec, i as u64, tracer, &mut stats);
                let np = spec.predictors.len();
                let same = got.is_ok_and(|cells| {
                    cells.iter().enumerate().all(|(j, bytes)| {
                        let (w, p) = (j / np, j % np);
                        let fp = store.result_fingerprint(
                            &spec.predictors[p],
                            &spec.workloads[w],
                            &spec.sim,
                        );
                        store.result_bytes(fp).ok().flatten().as_ref() == Some(bytes)
                    })
                });
                out.check(same, || {
                    format!("serve probe campaign {i}: cells differ from the store")
                });
            }
        }
        Err(e) => out.check(false, || format!("serve probe daemon failed to start: {e}")),
    }
    serve_metrics(tracer, &stats, out);
}

/// The `serve.*` per-layer metrics from the traced client's spans.
pub fn serve_metrics(tracer: &Tracer, stats: &ClientStats, out: &mut Outcome) {
    let n = stats.requests.max(1) as f64;
    let note = |name: &str| format!("median per call, n={}", tracer.ms(name).len());
    out.push("serve.submit_ms", median(&tracer.ms("serve.submit")), "ms", note("serve.submit"));
    out.push("serve.poll_ms", median(&tracer.ms("serve.poll")), "ms", note("serve.poll"));
    out.push("serve.stream_ms", median(&tracer.ms("serve.stream")), "ms", note("serve.stream"));
    out.push(
        "serve.polls_per_req",
        stats.polls as f64 / n,
        "count",
        format!("{} requests", stats.requests),
    );
    let useful =
        if stats.polls == 0 { 0.0 } else { stats.useful_polls as f64 / stats.polls as f64 };
    out.push(
        "serve.useful_poll_ratio",
        useful,
        "ratio",
        format!("{} of {} polls returned new cells", stats.useful_polls, stats.polls),
    );
    out.push(
        "serve.passes_per_req",
        stats.passes as f64 / n,
        "count",
        "daemon reconcile passes per campaign",
    );
}
