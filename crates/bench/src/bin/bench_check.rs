//! CI perf-regression gate over the machine-readable bench reports.
//!
//! Compares the current `SM_BENCH_JSON` report(s) against the committed
//! baseline and exits non-zero when any benchmark's median wall-clock time
//! (or any recorded memory footprint) regressed by more than 25%, or when a
//! baseline entry is missing from the current report (catching silent
//! renames):
//!
//! ```text
//! cargo run -p sm-bench --bin bench_check -- \
//!     --current BENCH_solver.json --baseline bench/baseline.json
//! ```
//!
//! `--current` may be repeated: each bench or example process overwrites its
//! own `SM_BENCH_JSON` file, so a run that produces timings and memory
//! footprints in separate processes (e.g. `solver_micro` plus the
//! `arena_stats` example) hands all of them to one gate invocation and they
//! are merged into a single logical report (duplicate names are rejected).
//!
//! `--write-baseline` writes the merged current report over the baseline
//! instead of comparing — the refresh path after an intentional perf change
//! or a hardware migration (absolute medians are machine-dependent; the
//! baseline must be regenerated on hardware comparable to the machines the
//! gate runs on — see `bench/README.md`).

use sm_bench::report::{compare_reports, merge_reports, parse_report};
use std::process::ExitCode;

/// The gate's regression budget: a median (or footprint) above
/// `THRESHOLD ×` its baseline fails.
const THRESHOLD: f64 = 1.25;

/// The noise floor: benchmarks whose baseline median sits below 1 ms are
/// compared and reported but cannot fail the gate, since microsecond-scale
/// entries jitter past any reasonable threshold on shared CI runners.
/// Memory footprints have no noise floor — byte counts are deterministic.
const MIN_MEDIAN_NS: u128 = 1_000_000;

struct Args {
    current: Vec<String>,
    baseline: String,
    write_baseline: bool,
}

const USAGE: &str = "usage: bench_check --current <report.json> [--current <more.json> ...] \
                     --baseline <baseline.json> [--write-baseline]";

fn parse_args() -> Result<Args, String> {
    let mut current = Vec::new();
    let mut baseline = None;
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--current" => current.push(args.next().ok_or("--current needs a path")?),
            "--baseline" => baseline = Some(args.next().ok_or("--baseline needs a path")?),
            "--write-baseline" => write_baseline = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if current.is_empty() {
        return Err(format!("missing --current\n{USAGE}"));
    }
    Ok(Args {
        current,
        baseline: baseline.ok_or(format!("missing --baseline\n{USAGE}"))?,
        write_baseline,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    // Validate every report before copying or comparing, so a truncated
    // report can neither pass the gate nor become the new baseline.
    let mut reports = Vec::with_capacity(args.current.len());
    for path in &args.current {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read current report {path}: {e}"))?;
        reports.push(
            parse_report(&text).map_err(|e| format!("malformed current report {path}: {e}"))?,
        );
    }
    let current = merge_reports(reports)?;
    if current.benchmarks.is_empty() && current.mem_footprint.is_empty() {
        return Err(format!(
            "current report(s) {} record nothing",
            args.current.join(", ")
        ));
    }

    if args.write_baseline {
        std::fs::write(&args.baseline, current.to_json())
            .map_err(|e| format!("cannot write baseline {}: {e}", args.baseline))?;
        println!(
            "baseline {} refreshed from {} ({} benchmarks, {} memory footprints)",
            args.baseline,
            args.current.join(", "),
            current.benchmarks.len(),
            current.mem_footprint.len()
        );
        return Ok(true);
    }

    let baseline_text = std::fs::read_to_string(&args.baseline)
        .map_err(|e| format!("cannot read baseline {}: {e}", args.baseline))?;
    let baseline = parse_report(&baseline_text)
        .map_err(|e| format!("malformed baseline {}: {e}", args.baseline))?;

    let comparison = compare_reports(&current, &baseline, THRESHOLD, MIN_MEDIAN_NS);
    print!("{}", comparison.render());
    let regressions = comparison.regressions();
    let missing = comparison.missing();
    if !regressions.is_empty() {
        eprintln!(
            "PERF REGRESSION: {} entrie(s) exceeded {:.0}% of their baseline: {}",
            regressions.len(),
            (THRESHOLD - 1.0) * 100.0,
            regressions.join(", ")
        );
    }
    if !missing.is_empty() {
        eprintln!(
            "MISSING BENCHMARKS: {} baseline entrie(s) absent from the current report: {} \
             (renamed? refresh the baseline with --write-baseline)",
            missing.len(),
            missing.join(", ")
        );
    }
    Ok(comparison.passes())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("bench gate passed");
            ExitCode::SUCCESS
        }
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_check: {message}");
            ExitCode::from(2)
        }
    }
}
