//! End-to-end benchmark of the selfish-mining workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload curve-d3f2 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Workloads: `curve-d3f2`, `conformance-d2f1`, `service-d2f2` (see
//! `perfbench/README.md`). Each run is one process and one thread, does a
//! fixed number of ops (never time-boxed: `--seconds` is accepted but the
//! op count does not depend on it), checks every op's output and compares
//! its exact counters with `expected_counters.txt`. The last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`); the line before it is a `{"detail": …}` object with the
//! counters, sample counts and host diagnostics. A traced run also writes
//! its spans to `perfbench/out/trace-<workload>-<seed>.jsonl`.

mod conformance;
mod curve;
mod measure;
mod service;

use measure::{median, peak_rss_mb, percentile, reference_loop_ms, thread_cpu_ns, Tracer};
use selfish_mining::ParametricModel;
use sm_audit::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// One measured op: its index within the pass, whether its pass was traced,
/// its thread CPU time, the CPU time of the solver or estimator call inside
/// it, whether a cache answered it, and whether its output checks passed.
pub struct OpSample {
    pub op: usize,
    pub traced: bool,
    pub cpu_s: f64,
    pub solve_s: f64,
    pub hit: bool,
    pub ok: bool,
}

/// What a workload hands back: every set-up's time, every op of every pass,
/// exact counters, per-layer values (traced runs only) and failed checks.
#[derive(Default)]
pub struct RunResult {
    pub setup_s: Vec<f64>,
    pub ops: Vec<OpSample>,
    pub counters: BTreeMap<String, u64>,
    pub layers: BTreeMap<String, f64>,
    pub failures: Vec<String>,
}

impl RunResult {
    /// Records an exact counter. Every pass or set-up repeats the same work,
    /// so a value that differs from an earlier one is a failure.
    pub fn count(&mut self, name: &str, value: u64) {
        if let Some(old) = self.counters.insert(name.to_string(), value) {
            if old != value {
                self.failures.push(format!(
                    "counter {name} differs between passes: {old} vs {value}"
                ));
            }
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// The `core.*` per-layer values: the median `core.build` span and the
    /// sizes of `model`.
    pub fn core_layers(&mut self, tr: &Tracer, model: ModelSizes) {
        self.layer(
            "core.build_s",
            median(&tr.durations_ms("core.build")) * 1e-3,
        );
        self.layer("core.states", model.states as f64);
        self.layer("core.transitions", model.transitions as f64);
        self.layer("core.arena_bytes", model.arena_bytes as f64);
        self.layer("core.term_table_bytes", model.term_table_bytes as f64);
        self.layer(
            "core.bytes_per_transition",
            model.arena_bytes as f64 / model.transitions as f64,
        );
    }
}

/// Sizes of a built model family.
#[derive(Clone, Copy, Default)]
pub struct ModelSizes {
    pub states: usize,
    pub transitions: usize,
    /// CSR layout plus interned term table.
    pub arena_bytes: usize,
    pub term_table_bytes: usize,
}

impl ModelSizes {
    pub fn of(family: &ParametricModel) -> Self {
        ModelSizes {
            states: family.num_states(),
            transitions: family.num_transitions(),
            arena_bytes: family.layout_bytes() + family.term_table_bytes(),
            term_table_bytes: family.term_table_bytes(),
        }
    }
}

/// Runs `setup` inside a `setup` span. Returns its result and its thread
/// CPU seconds.
pub fn timed_setup<T>(
    tr: &mut Tracer,
    setup: impl FnOnce(&mut Tracer) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let start = thread_cpu_ns();
    tr.begin("setup");
    let built = setup(tr);
    tr.end();
    Ok((built?, (thread_cpu_ns() - start) as f64 * 1e-9))
}

/// One sample per op: the fastest of its passes (interference from other
/// tenants only ever slows deterministic work down), hit and ok flags over
/// those passes.
fn fastest_per_op<'a>(ops: impl IntoIterator<Item = &'a OpSample>) -> Vec<OpSample> {
    let mut best: BTreeMap<usize, OpSample> = BTreeMap::new();
    for sample in ops {
        let entry = best.entry(sample.op).or_insert(OpSample {
            op: sample.op,
            traced: sample.traced,
            cpu_s: f64::INFINITY,
            solve_s: f64::INFINITY,
            hit: sample.hit,
            ok: true,
        });
        entry.cpu_s = entry.cpu_s.min(sample.cpu_s);
        entry.solve_s = entry.solve_s.min(sample.solve_s);
        entry.ok &= sample.ok && entry.hit == sample.hit;
    }
    best.into_values().collect()
}

/// `BENCHMARK.json`, whose `end_to_end` and `per_layer` lists are the one
/// catalogue of metric names and units.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`.
fn catalogue(section: &str) -> Result<Vec<(String, String)>, String> {
    let bench = sm_audit::json::parse_json(BENCHMARK)?;
    let Some(JsonValue::Array(entries)) = bench.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    entries
        .iter()
        .map(|entry| {
            let field = |key| entry.get(key).and_then(JsonValue::as_str);
            match (field("name"), field("unit")) {
                (Some(name), Some(unit)) => Ok((name.to_string(), unit.to_string())),
                _ => Err(format!(
                    "BENCHMARK.json {section} entry without name or unit"
                )),
            }
        })
        .collect()
}

/// Exact counters every run must reproduce, per workload.
const EXPECTED: &str = include_str!("../expected_counters.txt");

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        trace,
    })
}

/// Counter mismatches against the committed expectation for `workload`.
fn check_counters(workload: &str, counters: &BTreeMap<String, u64>) -> Vec<String> {
    let expected: BTreeMap<&str, &str> = EXPECTED
        .lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            match (fields.next(), fields.next(), fields.next()) {
                (Some(w), Some(name), Some(value)) if w == workload => Some((name, value)),
                _ => None,
            }
        })
        .collect();
    let mut problems = Vec::new();
    if expected.is_empty() {
        problems.push(format!("no expected counters for {workload}"));
    }
    for (name, value) in counters {
        match expected.get(name.as_str()) {
            Some(want) if *want == value.to_string() => {}
            Some(want) => problems.push(format!("counter {name} = {value}, expected {want}")),
            None => problems.push(format!("counter {name} = {value} has no expectation")),
        }
    }
    for name in expected.keys() {
        if !counters.contains_key(*name) {
            problems.push(format!("counter {name} missing"));
        }
    }
    problems
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push('}');
    out
}

fn write_trace(path: &str, tr: &Tracer) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, self_ns) in tr.spans().iter().zip(tr.self_times_ns()) {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            file,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {}, \"op\": {}}}",
            span.name,
            span.start_ns,
            span.end_ns,
            self_ns,
            opt(span.parent),
            opt(span.op)
        )?;
    }
    file.flush()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ref_start = reference_loop_ms();
    let mut tr = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "curve-d3f2" => curve::run(args.seed, &mut tr),
        "conformance-d2f1" => conformance::run(args.seed, &mut tr),
        "service-d2f2" => service::run(args.seed, &mut tr),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("sm-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let ref_end = reference_loop_ms();
    let peak_rss = peak_rss_mb();
    let per_op = fastest_per_op(&result.ops);
    result.count("ops", per_op.len() as u64);
    result.count("process.threads", measure::thread_count());

    let attempted = result.ops.len();
    let failed = result.ops.iter().filter(|op| !op.ok).count();
    let mut problems = std::mem::take(&mut result.failures);
    problems.extend(check_counters(&args.workload, &result.counters));

    let op_ms: Vec<f64> = per_op.iter().map(|op| op.cpu_s * 1e3).collect();
    let solve_ms: Vec<f64> = per_op
        .iter()
        .filter(|op| !op.hit)
        .map(|op| op.solve_s * 1e3)
        .collect();
    let hit_us: Vec<f64> = per_op
        .iter()
        .filter(|op| op.hit)
        .map(|op| op.cpu_s * 1e6)
        .collect();
    let total_op_s: f64 = per_op.iter().map(|op| op.cpu_s).sum();
    let op_p50 = median(&op_ms);

    let (section, values) = if args.trace {
        let mut values = std::mem::take(&mut result.layers);
        // Op-tier statistics of the per-op minima; an empty tier reads 0.
        let or_zero = |v: f64| if v.is_nan() { 0.0 } else { v };
        values.insert("op_cpu_ms_p90".into(), percentile(&op_ms, 0.9));
        values.insert("solve_op_cpu_ms_p50".into(), or_zero(median(&solve_ms)));
        values.insert("hit_op_cpu_us_p50".into(), or_zero(median(&hit_us)));
        values.insert("bench.op_self_ms".into(), median(&tr.self_times_ms("op")));
        // Tracing overhead, measured: the traced passes against the untraced
        // passes of the same ops in this process, each op at its fastest.
        let traced = fastest_per_op(result.ops.iter().filter(|op| op.traced));
        let untraced = fastest_per_op(result.ops.iter().filter(|op| !op.traced));
        let ms = |ops: &[OpSample]| ops.iter().map(|op| op.cpu_s * 1e3).collect::<Vec<_>>();
        let differences: Vec<f64> = traced
            .iter()
            .zip(&untraced)
            .map(|(t, u)| (t.cpu_s - u.cpu_s) * 1e3)
            .collect();
        if traced.len() != per_op.len() || untraced.len() != per_op.len() {
            problems.push("traced run needs traced and untraced passes of every op".into());
        }
        values.insert("trace.op_cpu_ms_p50".into(), median(&ms(&traced)));
        values.insert(
            "trace.untraced_op_cpu_ms_p50".into(),
            median(&ms(&untraced)),
        );
        values.insert("trace.overhead_ms_per_op".into(), median(&differences));
        values.insert("trace.spans".into(), tr.spans().len() as f64);
        values.insert("trace.span_cost_ns".into(), Tracer::calibrate_span_ns());
        values.insert("host.ref_loop_ms_start".into(), ref_start);
        values.insert("host.ref_loop_ms_end".into(), ref_end);
        let path = format!("perfbench/out/trace-{}-{}.jsonl", args.workload, args.seed);
        if let Err(e) = write_trace(&path, &tr) {
            problems.push(format!("cannot write {path}: {e}"));
        }
        ("per_layer", values)
    } else {
        let values = BTreeMap::from([
            // The set-up is counted like an op: at its fastest repetition.
            (
                "setup_s".to_string(),
                result.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            ),
            (
                "ops_per_cpu_s".to_string(),
                per_op.len() as f64 / total_op_s,
            ),
            ("op_cpu_ms_p50".to_string(), op_p50),
            ("peak_rss_mb".to_string(), peak_rss),
            (
                "op_ok_frac".to_string(),
                (attempted - failed) as f64 / attempted.max(1) as f64,
            ),
        ]);
        ("end_to_end", values)
    };

    // Every value must be in the catalogue. Every end-to-end metric must be
    // measured; a per-layer metric this workload does not exercise reads 0.
    let catalogue = match catalogue(section) {
        Ok(catalogue) => catalogue,
        Err(e) => {
            eprintln!("sm-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for name in values.keys() {
        if !catalogue.iter().any(|(n, _)| n == name) {
            problems.push(format!(
                "{name} is not in the {section} list of BENCHMARK.json"
            ));
        }
    }
    let mut metrics = Vec::new();
    for (name, unit) in &catalogue {
        let value = values.get(name).copied();
        if value.is_none() && section == "end_to_end" {
            problems.push(format!("end-to-end metric {name} was not measured"));
        }
        metrics.push((name.clone(), value.unwrap_or(0.0), unit.as_str()));
    }

    for problem in &problems {
        eprintln!("sm-perfbench: {}: {problem}", args.workload);
    }
    let correct =
        problems.is_empty() && failed == 0 && attempted > 0 && per_op.iter().all(|op| op.ok);

    let quoted = |names: Vec<&String>| {
        let names: Vec<String> = names.iter().map(|name| format!("\"{name}\"")).collect();
        names.join(", ")
    };
    let counters: Vec<String> = result
        .counters
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    let setups: Vec<String> = result.setup_s.iter().map(|s| json_number(*s)).collect();
    let op_list: Vec<String> = op_ms.iter().map(|ms| format!("{ms:.3}")).collect();
    // Median op time of each pass: how much the host drifted within the run.
    let pass_p50: Vec<String> = result
        .ops
        .chunks(per_op.len().max(1))
        .map(|pass| {
            let ms: Vec<f64> = pass.iter().map(|op| op.cpu_s * 1e3).collect();
            format!("{:.4}", median(&ms))
        })
        .collect();
    println!(
        "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"passes\": {}, \"ops\": {}, \
         \"solve_ops\": {}, \"hit_ops\": {}, \"setup_s\": [{}], \"ref_loop_ms\": [{}, {}], \
         \"problems\": {}, \"pass_op_ms_p50\": [{}], \"op_ms\": [{}], \"measured\": [{}], \
         \"counters\": {{{}}}}}}}",
        args.workload,
        args.seed,
        args.trace,
        attempted / per_op.len().max(1),
        per_op.len(),
        solve_ms.len(),
        per_op.len() - solve_ms.len(),
        setups.join(", "),
        json_number(ref_start),
        json_number(ref_end),
        problems.len(),
        pass_p50.join(", "),
        op_list.join(", "),
        quoted(values.keys().collect()),
        counters.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
