//! Peak heap in use, sampled from the C allocator's statistics.
//!
//! The resident set is no steady measure of the program's memory here: with
//! two worker threads glibc keeps freed memory in per-thread arenas, and the
//! peak `VmHWM` of identical runs moved by a quarter with how those arenas
//! happened to be reused. The allocator's own count of bytes handed out and
//! not yet freed does not depend on that.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// glibc's `struct mallinfo2` (all fields `size_t`).
#[repr(C)]
struct Mallinfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> Mallinfo2;
}

/// Bytes in use: allocated chunks in every arena plus mmapped chunks.
fn in_use() -> usize {
    // SAFETY: `mallinfo2` takes no arguments, reads the allocator's
    // statistics under the allocator's own locks and returns a plain struct
    // by value; `Mallinfo2` matches its C layout (glibc 2.33 and later).
    let info = unsafe { mallinfo2() };
    info.uordblks + info.hblkhd
}

/// Samples [`in_use`] every 10 ms on a thread of its own and keeps the
/// highest value; long-lived buffers (traces, predictor tables) dominate the
/// peak, and they live far longer than the sampling interval.
pub struct PeakSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    thread: Option<JoinHandle<()>>,
}

impl PeakSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(in_use()));
        let thread = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak.fetch_max(in_use(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        Self { stop, peak, thread: Some(thread) }
    }

    /// The peak since the last call (or the start) in MiB; the next period
    /// starts from what is in use now.
    pub fn take(&self) -> f64 {
        let now = in_use();
        let peak = self.peak.swap(now, Ordering::Relaxed).max(now);
        peak as f64 / (1024.0 * 1024.0)
    }
}

impl Drop for PeakSampler {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_sees_a_live_buffer() {
        let sampler = PeakSampler::start();
        let buffer = vec![1u8; 64 << 20];
        std::thread::sleep(Duration::from_millis(30));
        drop(std::hint::black_box(buffer));
        assert!(sampler.take() >= 64.0);
    }
}
