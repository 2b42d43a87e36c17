//! Clocks, memory probes, order statistics and the in-memory span recorder.
//!
//! Every duration in this benchmark is *thread CPU time*
//! (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`): on a shared host, wall time
//! and `/proc/thread-self/schedstat` (4 ms steps) both picked up scheduler
//! noise the thread CPU clock does not. All workloads are single-threaded,
//! which the run verifies (`process.threads` counter).

use std::hint::black_box;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // x86-64/aarch64 Linux) that outlives the call, and the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Seconds of thread CPU time spent in `f`, with its result.
pub fn cpu_time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = thread_cpu_ns();
    let out = f();
    (out, (thread_cpu_ns() - start) as f64 * 1e-9)
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in bytes.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse::<u64>().ok()
    })
}

/// Peak resident set size of the process so far, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

/// Number of threads of the process (the single-thread guard).
pub fn thread_count() -> u64 {
    status_kb("Threads").unwrap_or(0)
}

/// A fixed integer loop (xorshift64, 30 M rounds) timed in thread CPU
/// milliseconds. Recorded at the start and end of every run as a host
/// diagnostic only: it never scales or normalizes another metric.
pub fn reference_loop_ms() -> f64 {
    let (_, seconds) = cpu_time(|| {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
        for _ in 0..30_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x)
    });
    seconds * 1e3
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; `NaN` if empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so one seed always yields the same inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One recorded span: a named interval of thread CPU time around a call
/// into one layer, with the span that caused it and the op it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Disabled (the untraced run), `begin`/`end` do
/// nothing; enabled, spans are kept in memory and written out once, when
/// the run ends. An enabled recorder can be paused between passes, so that
/// a traced run also times untraced passes of the same ops and measures
/// the tracing overhead directly.
pub struct Tracer {
    enabled: bool,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: enabled,
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether spans are being recorded now.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Traced run: records the spans of even passes and pauses during odd
    /// ones. Call between passes, with no span open.
    pub fn start_pass(&mut self, pass: usize) {
        assert!(self.open.is_empty(), "pass started inside a span");
        self.recording = self.enabled && pass.is_multiple_of(2);
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: Option<usize>) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.recording {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: thread_cpu_ns(),
            end_ns: 0,
            parent,
            op: self.op,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.recording {
            return;
        }
        let now = thread_cpu_ns();
        let index = self.open.pop().expect("span end without a matching begin");
        self.spans[index].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn record<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 * 1e-6)
            .collect()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(span, children)| span.duration_ns().saturating_sub(*children))
            .collect()
    }

    /// Self times, in milliseconds, of every span named `name`.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(span, _)| span.name == name)
            .map(|(_, ns)| ns as f64 * 1e-6)
            .collect()
    }

    /// CPU cost of one empty `begin`/`end` pair, in nanoseconds, measured on
    /// a scratch recorder so the run's own spans are untouched.
    pub fn calibrate_span_ns() -> f64 {
        const PAIRS: usize = 20_000;
        let mut scratch = Tracer::new(true);
        scratch.spans.reserve(PAIRS);
        let (_, seconds) = cpu_time(|| {
            for _ in 0..PAIRS {
                scratch.begin("calibration");
                scratch.end();
            }
        });
        seconds * 1e9 / PAIRS as f64
    }
}
