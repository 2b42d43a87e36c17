//! The conformance grid and the scenario matrix, certified end to end
//! through the fault-tolerant sharded grid runner. Every grid point is
//! solved with an ε-certificate, its ε-optimal strategy is exported into
//! the block-level simulator, and a Monte-Carlo estimate — once per
//! configured consensus backend — must overlap the certified
//! `[β_low, β_up]` revenue bracket. Each point is an idempotent job with a
//! durable, fingerprinted `sm-grid/v1` artifact; a `--resume` run schedules
//! only the missing or corrupt points and merges the same report bit for
//! bit.
//!
//! ```text
//! cargo run --release --example grid                         # coarse Figure-2 grid
//! cargo run --release --example grid -- reduced              # CI-sized sub-grid
//! cargo run --release --example grid -- scenarios            # scenario matrix
//! cargo run --release --example grid -- scenarios reduced    # CI-sized scenario matrix
//! cargo run --release --example grid -- --dir DIR            # artifact directory
//! cargo run --release --example grid -- --resume DIR         # DIR must already exist
//! ```
//!
//! Scenario mode certifies every shipped attack scenario (optimal, the three
//! stubborn-mining variants, honest mining) and additionally checks
//! restriction dominance (no stubborn scenario certifies above the optimal
//! one) and the honest anchor (honest mining certifies revenue `p`).
//!
//! An artifact's name digests the grid spec, not the code that computed it,
//! so without `--resume` the run refuses an artifact directory (`--dir`, or
//! the default `target/sm-grid/<mode>`) that already holds `sm-grid/v1`
//! artifacts: reusing them after a solver change would certify nothing.
//!
//! Orchestration knobs: `--threads N` (global thread budget), `--backends
//! LIST|all` (default: Bernoulli + PoW lottery), `--shard N` (points per
//! shard, 0 = whole curve), `--rounds N` (scan/execute rounds, ≥ 1; a
//! round re-schedules whatever the previous one left missing or torn). The
//! report is identical for any of them. Fault injection, for smoke-testing
//! the resume machinery only: `--fault-kill S` / `--fault-poison S` fault
//! every `S`-th point-job in the first round. Flags take their value as
//! `--flag V` or `--flag=V`; any other argument is rejected before the
//! artifact directory is touched.
//!
//! The process exits non-zero on any conformance violation, backend
//! disagreement, (in scenarios mode) dominance or honest-anchor violation,
//! or when the run leaves points unfinished.

use selfish_mining::AttackScenario;
use selfish_mining_repro::cli::{backend_matrix, thread_budget};
use selfish_mining_repro::conformance::ConformanceSettings;
use selfish_mining_repro::grid::{
    run_grid, FaultKind, GridError, GridFault, GridFaultPlan, GridOptions, GridSpec, GRID_SCHEMA,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Certified-bracket slack absorbing solver float noise in the dominance
/// comparison (the brackets themselves are only certified up to the inner
/// precision).
const DOMINANCE_SLACK: f64 = 1e-9;

/// The positional words the driver understands.
const WORDS: [&str; 2] = ["reduced", "scenarios"];

/// The flags the driver understands, each taking one value.
const FLAGS: [&str; 8] = [
    "--threads",
    "--backends",
    "--shard",
    "--rounds",
    "--fault-kill",
    "--fault-poison",
    "--dir",
    "--resume",
];

/// Rejects the first argument that is neither a known word nor a known flag
/// (as `--flag V` or `--flag=V`).
fn check_arguments(args: &[String]) -> Result<(), String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if FLAGS.contains(&arg.as_str()) {
            iter.next();
        } else if !WORDS.contains(&arg.as_str())
            && !arg
                .split_once('=')
                .is_some_and(|(flag, _)| FLAGS.contains(&flag))
        {
            return Err(format!(
                "unknown argument {arg:?} (words: {}; flags: {})",
                WORDS.join(", "),
                FLAGS.join(", ")
            ));
        }
    }
    Ok(())
}

/// Whether `dir` already holds `sm-grid/v1` artifacts, of any grid spec.
fn holds_artifacts(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|entry| {
            let path = entry.path();
            path.extension().is_some_and(|ext| ext == "json")
                && std::fs::read_to_string(&path).is_ok_and(|json| json.contains(GRID_SCHEMA))
        })
    })
}

/// Extracts `--name VALUE` / `--name=VALUE` (last occurrence wins).
fn flag_value(name: &str, args: &[String]) -> Result<Option<String>, String> {
    let mut value = None;
    let mut iter = args.iter();
    let long = format!("{name}=");
    while let Some(arg) = iter.next() {
        if arg == name {
            value = Some(
                iter.next()
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .clone(),
            );
        } else if let Some(rest) = arg.strip_prefix(&long) {
            value = Some(rest.to_string());
        }
    }
    Ok(value)
}

/// Extracts a non-negative integer flag.
fn usize_flag(name: &str, args: &[String]) -> Result<Option<usize>, String> {
    flag_value(name, args)?
        .map(|value| {
            value
                .parse::<usize>()
                .map_err(|_| format!("{name} expects a non-negative integer, got {value:?}"))
        })
        .transpose()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = check_arguments(&args) {
        eprintln!("grid: {message}");
        return ExitCode::FAILURE;
    }
    let scenarios_mode = args.iter().any(|arg| arg == "scenarios");
    let reduced = args.iter().any(|arg| arg == "reduced");
    let mode = if scenarios_mode {
        "scenarios"
    } else {
        "conformance"
    };

    macro_rules! parse {
        ($expr:expr) => {
            match $expr {
                Ok(value) => value,
                Err(message) => {
                    eprintln!("grid: {message}");
                    return ExitCode::FAILURE;
                }
            }
        };
    }
    let workers = parse!(thread_budget(args.iter().cloned())).unwrap_or(0);
    let backends = parse!(backend_matrix(args.iter().cloned()));
    let shard_points = parse!(usize_flag("--shard", &args)).unwrap_or(0);
    let rounds = parse!(usize_flag("--rounds", &args));
    let fault_kill = parse!(usize_flag("--fault-kill", &args));
    let fault_poison = parse!(usize_flag("--fault-poison", &args));
    let dir_flag = parse!(flag_value("--dir", &args));
    let resume_flag = parse!(flag_value("--resume", &args));

    let dir = match (resume_flag, dir_flag) {
        (Some(resume), _) => {
            let dir = PathBuf::from(resume);
            if !dir.is_dir() {
                eprintln!(
                    "grid: --resume {} does not exist (use --dir to start a fresh run)",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
            dir
        }
        (None, dir) => {
            let dir = dir.map_or_else(|| PathBuf::from("target/sm-grid").join(mode), PathBuf::from);
            if holds_artifacts(&dir) {
                eprintln!(
                    "grid: {} already holds {GRID_SCHEMA} artifacts, possibly from other code; \
                     reuse them with --resume {} or start a fresh run in an empty --dir",
                    dir.display(),
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
            dir
        }
    };

    let epsilon = 1e-3;
    let (attack_grid, gammas, ps) = if reduced {
        (vec![(2, 1)], vec![0.0, 0.5, 1.0], vec![0.1, 0.2, 0.3])
    } else if scenarios_mode {
        (
            vec![(1, 1), (2, 1)],
            vec![0.0, 0.5, 1.0],
            vec![0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
        )
    } else {
        (
            vec![(1, 1), (2, 1)],
            vec![0.0, 0.5, 1.0],
            selfish_mining::experiments::coarse_p_grid(),
        )
    };
    let scenarios = if scenarios_mode {
        AttackScenario::default_family()
    } else {
        vec![AttackScenario::Optimal]
    };
    // In scenario mode a 12-replica floor keeps the variance estimate of the
    // one-sided CI-vs-certificate test well conditioned (t₁₁ instead of t₃
    // tails): the certified β_low is the witnessed strategy's exact revenue,
    // so every point is an edge case by construction.
    let mut settings = if scenarios_mode {
        ConformanceSettings {
            min_replicas: 12,
            batch: 12,
            ..ConformanceSettings::default()
        }
    } else {
        ConformanceSettings::default()
    };
    if let Some(backends) = backends {
        settings.backends = backends;
    }
    let spec = GridSpec {
        attack_grid,
        scenarios,
        max_fork_length: 4,
        epsilon,
        gammas,
        ps,
        settings,
    };

    let mut fault_plan = GridFaultPlan::default();
    if let Some(stride) = fault_kill {
        fault_plan.faults.push(GridFault {
            kind: FaultKind::Kill,
            stride,
            offset: 0,
            attempts: 1,
        });
    }
    if let Some(stride) = fault_poison {
        fault_plan.faults.push(GridFault {
            kind: FaultKind::Poison,
            stride,
            offset: 1,
            attempts: 1,
        });
    }
    let mut options = GridOptions::new(&dir);
    options.workers = workers;
    options.shard_points = shard_points;
    if let Some(rounds) = rounds {
        options.max_rounds = rounds;
    }
    if !fault_plan.faults.is_empty() {
        println!(
            "fault injection armed: {:.0}% of first attempts faulted",
            fault_plan.first_attempt_coverage(spec.num_points()) * 100.0
        );
        options.fault_plan = Some(fault_plan);
    }

    println!(
        "grid orchestrator [{mode}]: {} scenarios x {} gamma panels x {} p values x {} backends = {} points, grid {:?}, epsilon {epsilon}",
        spec.scenarios.len(),
        spec.gammas.len(),
        spec.ps.len(),
        spec.settings.backends.len(),
        spec.num_points(),
        spec.attack_grid,
    );
    println!("artifact directory: {}", dir.display());
    let outcome = match run_grid(&spec, &options) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("grid run failed: {err}");
            if !matches!(err, GridError::InvalidOptions { .. }) {
                eprintln!("resume with: --resume {}", dir.display());
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "orchestration: {} reused, {} produced, {} round(s)",
        outcome.reused, outcome.produced, outcome.rounds
    );
    let report = outcome.report;

    println!("{}", report.render());
    println!(
        "points: {}   worst CI-to-certificate gap: {:.6}   unknown views: {}",
        report.len(),
        report.worst_gap(),
        report.unknown_views(),
    );

    let mut failed = false;
    if !report.all_conform() {
        failed = true;
        eprintln!(
            "CONFORMANCE FAILURE: {} of {} points have a simulated CI outside the certificate",
            report.violations().len(),
            report.len()
        );
    }
    if !report.sources_agree() {
        failed = true;
        eprintln!("BACKEND DISAGREEMENT: two consensus backends' estimates diverge");
    }

    if scenarios_mode {
        for violation in report.dominance_violations(DOMINANCE_SLACK) {
            failed = true;
            let point = violation.point;
            match violation.optimal {
                None => eprintln!(
                    "MISSING OPTIMAL REFERENCE for {} at p={} gamma={}",
                    point.scenario, point.p, point.gamma
                ),
                Some(optimal) => eprintln!(
                    "DOMINANCE VIOLATION: {} certifies {} > optimal {} at (d={}, f={}, p={}, gamma={})",
                    point.scenario, point.certified_lower, optimal.certified_upper,
                    point.depth, point.forks, point.p, point.gamma
                ),
            }
        }
        for point in report.honest_anchor_violations(epsilon) {
            failed = true;
            eprintln!(
                "HONEST ANCHOR VIOLATION: honest-mining certifies {} instead of p = {} at gamma={}",
                point.strategy_revenue, point.p, point.gamma
            );
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "all points conform; all backends agree{}",
            if scenarios_mode {
                "; dominance and the honest anchor hold"
            } else {
                ""
            }
        );
        ExitCode::SUCCESS
    }
}
