//! A minimal, dependency-free stand-in for the [Criterion.rs] benchmarking
//! crate, so that the workspace's benches compile and run in offline
//! environments (this container has no access to crates.io).
//!
//! The shim implements the subset of the Criterion API the in-tree benches
//! use — `Criterion::benchmark_group`, `BenchmarkGroup::{sample_size,
//! bench_function, bench_with_input, finish}`, `Bencher::iter`,
//! `BenchmarkId` and the `criterion_group!` / `criterion_main!` macros — and
//! measures plain wall-clock time: one warm-up invocation followed by
//! `sample_size` timed samples, reporting min/median/mean per benchmark.
//! Swapping in the real Criterion later requires only a manifest change.
//!
//! # Machine-readable reports
//!
//! Two environment variables feed the CI perf-regression harness:
//!
//! * `SM_BENCH_JSON=<path>` — after every benchmark, the accumulated
//!   results are (re)written to `<path>` as a JSON report (see
//!   [`render_report`] for the exact schema; `bench/README.md` documents it
//!   next to the committed baseline). The file is rewritten incrementally,
//!   so a partial report survives an aborted run. A *relative* path is
//!   resolved against the workspace root, not the process working
//!   directory — cargo runs each bench with the bench crate's directory as
//!   CWD, which used to scatter relative reports across crate dirs.
//! * `SM_BENCH_SAMPLES=<n>` — overrides every benchmark's sample count
//!   (whether set via [`BenchmarkGroup::sample_size`] or defaulted), so CI
//!   smoke runs can keep wall-clock time bounded without touching the
//!   bench sources.
//!
//! [Criterion.rs]: https://docs.rs/criterion

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark of a report: what the sampler records here and what the
/// report parser reads back.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Full `group/benchmark-id` path.
    pub name: String,
    /// Median wall-clock sample, nanoseconds.
    pub median_ns: u128,
    /// Mean wall-clock sample, nanoseconds.
    pub mean_ns: u128,
    /// Fastest wall-clock sample, nanoseconds.
    pub min_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
}

/// One memory footprint of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct MemRecord {
    /// Footprint name, e.g. `arena/optimal-d3-f2-l4/layout_bytes`.
    pub name: String,
    /// Resident bytes.
    pub bytes: u128,
}

/// Results recorded so far in this process (in execution order).
static RECORDED: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Memory footprints recorded so far in this process (in execution order).
static RECORDED_MEMORY: Mutex<Vec<MemRecord>> = Mutex::new(Vec::new());

/// The schema identifier embedded in every JSON report.
pub const JSON_SCHEMA: &str = "sm-bench/v2";

/// Renders the benchmarks and memory footprints recorded so far in this
/// process with [`render_report`]. This is what `SM_BENCH_JSON` writes.
pub fn json_report() -> String {
    let recorded = RECORDED.lock().expect("benchmark record poisoned");
    let memory = RECORDED_MEMORY.lock().expect("memory record poisoned");
    render_report(&recorded, &memory)
}

/// Renders benchmarks and memory footprints as the `sm-bench/v2` JSON report:
///
/// ```json
/// {
///   "schema": "sm-bench/v2",
///   "benchmarks": [
///     {"name": "...", "median_ns": 0, "mean_ns": 0, "min_ns": 0, "samples": 0}
///   ],
///   "mem_footprint": [
///     {"name": "...", "bytes": 0}
///   ]
/// }
/// ```
///
/// Durations are integer nanoseconds; `name` is the full
/// `group/benchmark-id` path; `mem_footprint` carries resident-byte counts
/// recorded via [`record_memory`]. One record per line, so the committed
/// baselines diff line by line.
pub fn render_report(benchmarks: &[BenchRecord], memory: &[MemRecord]) -> String {
    let mut out = String::from("{\n  \"schema\": \"");
    out.push_str(JSON_SCHEMA);
    out.push_str("\",\n  \"benchmarks\": [");
    for (index, bench) in benchmarks.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"name\": \"");
        escape_into(&mut out, &bench.name);
        out.push_str(&format!(
            "\", \"median_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"samples\": {}}}",
            bench.median_ns, bench.mean_ns, bench.min_ns, bench.samples
        ));
    }
    out.push_str("\n  ],\n  \"mem_footprint\": [");
    for (index, entry) in memory.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"name\": \"");
        escape_into(&mut out, &entry.name);
        out.push_str(&format!("\", \"bytes\": {}}}", entry.bytes));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// JSON-escapes `name` into `out`.
fn escape_into(out: &mut String, name: &str) {
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
}

/// The report file `SM_BENCH_JSON` points at, with relative paths resolved
/// against the workspace root (two levels above this crate's manifest) so
/// `SM_BENCH_JSON=report.json` lands in one predictable place no matter
/// which crate's bench process writes it.
fn report_path() -> Option<PathBuf> {
    let path = std::env::var("SM_BENCH_JSON").ok()?;
    if path.is_empty() {
        return None;
    }
    let path = PathBuf::from(path);
    if path.is_absolute() {
        Some(path)
    } else {
        let workspace_root = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?.parent()?;
        Some(workspace_root.join(path))
    }
}

/// Rewrites the `SM_BENCH_JSON` report file (if configured) with everything
/// recorded so far.
fn rewrite_report() {
    if let Some(path) = report_path() {
        if let Err(error) = std::fs::write(&path, json_report()) {
            eprintln!(
                "warning: could not write SM_BENCH_JSON={}: {error}",
                path.display()
            );
        }
    }
}

/// Records one benchmark result and, when `SM_BENCH_JSON` is set, rewrites
/// the report file with everything recorded so far.
fn record_benchmark(bench: BenchRecord) {
    RECORDED
        .lock()
        .expect("benchmark record poisoned")
        .push(bench);
    rewrite_report();
}

/// Records a named resident-memory footprint (in bytes) into the report's
/// `mem_footprint` array and, when `SM_BENCH_JSON` is set, rewrites the
/// report file. Benches and examples use this to track arena sizes next to
/// their timings; the perf gate compares the entries against the committed
/// baseline like it compares durations.
pub fn record_memory(name: impl Into<String>, bytes: u64) {
    let name = name.into();
    println!("mem:   {name:<48} {bytes} bytes");
    RECORDED_MEMORY
        .lock()
        .expect("memory record poisoned")
        .push(MemRecord {
            name,
            bytes: u128::from(bytes),
        });
    rewrite_report();
}

/// The effective sample count: the benchmark's own configuration, unless
/// `SM_BENCH_SAMPLES` overrides it.
fn effective_sample_size(configured: usize) -> usize {
    std::env::var("SM_BENCH_SAMPLES")
        .ok()
        .and_then(|value| value.parse::<usize>().ok())
        .filter(|&samples| samples >= 1)
        .unwrap_or(configured)
}

/// Top-level benchmark driver, constructed by [`criterion_group!`].
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Runs a single benchmark outside of any group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = id.to_string();
        run_benchmark(&name, 20, f);
        self
    }
}

/// Identifier of one benchmark within a group, optionally parameterised.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    rendered: String,
}

impl BenchmarkId {
    /// A benchmark id made of a function name and a parameter rendering.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            rendered: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// A benchmark id that is just the rendering of a parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            rendered: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.rendered)
    }
}

/// A group of benchmarks sharing a name prefix and a sample size.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Benchmarks a closure under the given id.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = format!("{}/{}", self.name, id);
        run_benchmark(&name, self.sample_size, f);
        self
    }

    /// Benchmarks a closure that receives a borrowed input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.name, id);
        run_benchmark(&name, self.sample_size, |b| f(b, input));
        self
    }

    /// Finishes the group. A no-op in the shim; kept for API compatibility.
    pub fn finish(self) {}
}

/// Timer handle passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    elapsed: Option<Duration>,
}

impl Bencher {
    /// Times one sample: runs `routine` once and records its wall-clock time.
    ///
    /// The real Criterion runs the routine many times per sample and divides;
    /// the shim's per-sample granularity is sufficient for the millisecond-and-
    /// up routines benchmarked in this workspace.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        let out = routine();
        self.elapsed = Some(start.elapsed());
        black_box(out);
    }
}

fn run_benchmark<F>(name: &str, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let sample_size = effective_sample_size(sample_size.max(1));
    // Warm-up invocation, not recorded.
    let mut bencher = Bencher { elapsed: None };
    f(&mut bencher);

    let mut samples: Vec<Duration> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut bencher = Bencher { elapsed: None };
        f(&mut bencher);
        // A closure that never calls `iter` contributes a zero sample, like
        // an empty Criterion bench would.
        samples.push(bencher.elapsed.unwrap_or_default());
    }
    samples.sort_unstable();
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    println!(
        "bench: {name:<48} median {} (mean {}, min {}, samples {})",
        human(median),
        human(mean),
        human(min),
        samples.len()
    );
    record_benchmark(BenchRecord {
        name: name.to_string(),
        median_ns: median.as_nanos(),
        mean_ns: mean.as_nanos(),
        min_ns: min.as_nanos(),
        samples: samples.len(),
    });
}

fn human(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", d.as_secs_f64() * 1e3)
    } else if nanos >= 1_000 {
        format!("{:.3} us", d.as_secs_f64() * 1e6)
    } else {
        format!("{nanos} ns")
    }
}

/// Declares a function that runs a list of benchmark functions, mirroring
/// Criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $(
                $target(&mut criterion);
            )+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $(
                $group();
            )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_runs_and_times() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut runs = 0usize;
        group.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        group.finish();
        // 1 warm-up + 3 samples.
        assert_eq!(runs, 4);
    }

    #[test]
    fn benchmark_id_renders_parameter() {
        assert_eq!(BenchmarkId::from_parameter(42).to_string(), "42");
        assert_eq!(BenchmarkId::new("f", "x").to_string(), "f/x");
    }

    #[test]
    fn json_report_records_benchmarks_with_escaped_names() {
        let mut c = Criterion::default();
        c.bench_function("shim-json/\"quoted\"", |b| b.iter(|| 1 + 1));
        let report = json_report();
        assert!(report.starts_with("{\n  \"schema\": \"sm-bench/v2\""));
        assert!(report.contains("\"name\": \"shim-json/\\\"quoted\\\"\""));
        assert!(report.contains("\"median_ns\": "));
        assert!(report.contains("\"samples\": "));
        assert!(report.contains("\"mem_footprint\": ["));
        assert!(report.trim_end().ends_with('}'));
    }

    #[test]
    fn memory_footprints_land_in_the_report() {
        record_memory("shim-mem/arena", 12_345);
        let report = json_report();
        assert!(report.contains("{\"name\": \"shim-mem/arena\", \"bytes\": 12345}"));
    }

    #[test]
    fn relative_report_paths_resolve_against_the_workspace_root() {
        // The helper itself reads the env var, which is process-global, so
        // only exercise the path arithmetic here.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .unwrap();
        assert!(root.join("Cargo.toml").exists(), "{}", root.display());
    }

    #[test]
    fn sample_override_requires_a_positive_integer() {
        // Only sanity-checks the parser helper (the env var itself is
        // process-global, so tests must not set it).
        assert_eq!(effective_sample_size(7), 7);
    }

    #[test]
    fn human_durations_pick_sensible_units() {
        assert!(human(Duration::from_nanos(5)).ends_with("ns"));
        assert!(human(Duration::from_micros(5)).ends_with("us"));
        assert!(human(Duration::from_millis(5)).ends_with("ms"));
        assert!(human(Duration::from_secs(5)).ends_with('s'));
    }
}
