//! Crash/resume determinism of the sharded grid orchestrator: a run killed
//! or poisoned mid-shard and resumed — across worker counts and shard sizes
//! — must merge a report `f64::to_bits`-identical to an uninterrupted
//! in-memory reference pass, and a corrupted artifact must be detected by
//! fingerprint and re-scheduled, never merged.

use selfish_mining::experiments::attack_curve;
use selfish_mining::{AnalysisConfig, AttackScenario, StrategyExport};
use selfish_mining_repro::conformance::{certify_point, ConformanceReport, ConformanceSettings};
use selfish_mining_repro::grid::{
    merge_grid, run_grid, scan_grid, FaultKind, GridError, GridFault, GridFaultPlan, GridOptions,
    GridSpec,
};
use std::path::PathBuf;

/// Cheap but non-trivial grid: 2 families (optimal + honest-mining on
/// (2, 1)) × 2 γ × 3 p = 12 points, full replica budget per point.
fn spec() -> GridSpec {
    GridSpec {
        attack_grid: vec![(2, 1)],
        scenarios: vec![AttackScenario::Optimal, AttackScenario::HonestMining],
        max_fork_length: 4,
        epsilon: 1e-2,
        gammas: vec![0.0, 0.5],
        ps: vec![0.1, 0.2, 0.3],
        settings: ConformanceSettings {
            steps: 2_000,
            max_replicas: 4,
            tolerance: 1e-2,
            ..ConformanceSettings::default()
        },
    }
}

/// The uninterrupted in-memory reference for `spec`: every `(γ, family)`
/// curve solved warm in one go and each point witnessed by the Monte-Carlo
/// estimator, in report order — `γ` outer, then the canonical
/// `(d, f) × scenario` family, then `p`.
fn reference(spec: &GridSpec) -> ConformanceReport {
    let families = spec.build_scenario_families().expect("families build");
    let config = AnalysisConfig::with_epsilon(spec.epsilon);
    let mut points = Vec::new();
    for &gamma in &spec.gammas {
        for family in &families {
            let export = StrategyExport::from_family(family);
            let solves =
                attack_curve(family, gamma, &spec.ps, config.clone()).expect("curve solves");
            for solve in &solves {
                points
                    .push(certify_point(&export, solve, &spec.settings).expect("point certifies"));
            }
        }
    }
    ConformanceReport { points }
}

/// A fresh artifact directory under the system temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sm-grid-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `f64::to_bits` equality over every float in both reports (PartialEq
/// would accept `0.0 == -0.0` and reject equal NaNs — the contract here is
/// bit identity, nothing weaker).
fn assert_bitwise_equal(merged: &ConformanceReport, reference: &ConformanceReport) {
    assert_eq!(merged.len(), reference.len(), "point counts differ");
    for (index, (a, b)) in merged.points.iter().zip(&reference.points).enumerate() {
        assert_eq!(a.scenario, b.scenario, "scenario at #{index}");
        assert_eq!(
            (a.depth, a.forks, a.max_fork_length, a.table_entries),
            (b.depth, b.forks, b.max_fork_length, b.table_entries),
            "structure at #{index}"
        );
        for (name, x, y) in [
            ("p", a.p, b.p),
            ("gamma", a.gamma, b.gamma),
            ("certified_lower", a.certified_lower, b.certified_lower),
            ("certified_upper", a.certified_upper, b.certified_upper),
            ("slack", a.slack, b.slack),
            ("strategy_revenue", a.strategy_revenue, b.strategy_revenue),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{name} at #{index}");
        }
        assert_eq!(
            a.estimates.len(),
            b.estimates.len(),
            "estimates at #{index}"
        );
        for (e, f) in a.estimates.iter().zip(&b.estimates) {
            assert_eq!(e.backend, f.backend, "backend at #{index}");
            for (name, x, y) in [
                ("mean", e.mean, f.mean),
                ("variance", e.variance, f.variance),
                ("half_width", e.half_width, f.half_width),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "estimate {name} at #{index}");
            }
            assert_eq!(
                (
                    e.replicas,
                    e.steps_per_replica,
                    e.converged,
                    e.unknown_views
                ),
                (
                    f.replicas,
                    f.steps_per_replica,
                    f.converged,
                    f.unknown_views
                ),
                "estimate shape at #{index}"
            );
        }
    }
}

#[test]
fn spec_digest_is_pinned() {
    // The digest names and fingerprints every durable artifact: moving it
    // orphans the artifact directories of earlier runs of the same grid.
    assert_eq!(spec().digest(), 0x618a_35e2_211a_03f7);
}

#[test]
fn heavily_faulted_run_heals_and_matches_the_reference_bitwise() {
    let spec = spec();
    let reference = reference(&spec);
    let dir = fresh_dir("faulted");
    // Kill every 3rd job and poison every 3rd-offset-2 job in the first
    // round: 8 of 12 points (67 %) fault — well past the 20 % the
    // acceptance criterion demands. A kill ends its shard before the
    // point is written and a poison tears the point's write; either way
    // the second round's rescan finds the point missing or corrupt and
    // re-schedules it.
    let plan = GridFaultPlan {
        faults: vec![
            GridFault {
                kind: FaultKind::Kill,
                stride: 3,
                offset: 0,
                attempts: 1,
            },
            GridFault {
                kind: FaultKind::Poison,
                stride: 3,
                offset: 2,
                attempts: 1,
            },
        ],
    };
    assert!(plan.first_attempt_coverage(spec.num_points()) >= 0.2);
    let mut options = GridOptions::new(&dir);
    options.workers = 4;
    options.shard_points = 2;
    options.fault_plan = Some(plan);
    let outcome = run_grid(&spec, &options).expect("faulted run must heal");
    assert_eq!(outcome.rounds, 2, "the second round heals every fault");
    assert_eq!(
        outcome.produced,
        spec.num_points(),
        "every point is written cleanly exactly once"
    );
    assert!(
        outcome.rounds > 1,
        "poison faults are only visible to the next scan"
    );
    assert_bitwise_equal(&outcome.report, &reference);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn kill_mid_shard_then_resume_is_bitwise_identical_across_schedules() {
    let spec = spec();
    let reference = reference(&spec);
    // A kill that fires in every round (rounds budget 1) leaves the run
    // dead with partial progress — the crash-mid-shard scenario.
    let dir = fresh_dir("resume");
    let mut crashed = GridOptions::new(&dir);
    crashed.workers = 1;
    crashed.shard_points = 0; // whole-curve shards: the kill hits mid-shard
    crashed.max_rounds = 1;
    crashed.fault_plan = Some(GridFaultPlan::kill_every(4, usize::MAX));
    let error = run_grid(&spec, &crashed).expect_err("the kill must be fatal");
    assert!(
        matches!(error, GridError::Incomplete { pending, .. } if pending > 0),
        "unexpected failure: {error}"
    );
    // The crash left earlier shard points durable...
    let scan = scan_grid(&spec, &dir).expect("scan");
    assert!(scan.complete() > 0, "mid-shard progress must be durable");
    assert!(scan.missing() > 0);
    // ...and a merge refuses the incomplete directory.
    assert!(matches!(
        merge_grid(&spec, &dir),
        Err(GridError::Incomplete { .. })
    ));
    // Resume with a *different* schedule (more workers, smaller shards, no
    // faults): only the missing points run, and the merge is bit-identical
    // to the uninterrupted single-process reference.
    let mut resumed = GridOptions::new(&dir);
    resumed.workers = 4;
    resumed.shard_points = 1;
    let outcome = run_grid(&spec, &resumed).expect("resume must complete");
    assert_eq!(outcome.reused, scan.complete(), "durable points are reused");
    assert_eq!(
        outcome.reused + outcome.produced,
        spec.num_points(),
        "resume computes exactly the missing points"
    );
    assert_bitwise_equal(&outcome.report, &reference);
    // A third pass over the completed directory is a verified no-op, and a
    // standalone merge agrees.
    let noop = run_grid(&spec, &resumed).expect("no-op rerun");
    assert_eq!((noop.produced, noop.reused), (0, spec.num_points()));
    assert_bitwise_equal(&noop.report, &reference);
    assert_bitwise_equal(&merge_grid(&spec, &dir).expect("merge"), &reference);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupted_artifacts_are_fingerprint_detected_and_rescheduled() {
    let spec = spec();
    let dir = fresh_dir("corrupt");
    let options = GridOptions::new(&dir);
    let first = run_grid(&spec, &options).expect("initial run");
    assert_eq!(first.produced, spec.num_points());

    // Corrupt two artifacts two different ways: truncate one (breaks the
    // parse) and flip a digit inside another (breaks the fingerprint).
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), spec.num_points());
    let truncated = &files[0];
    let original = std::fs::read_to_string(truncated).expect("read artifact");
    std::fs::write(truncated, &original[..original.len() / 2]).expect("truncate");
    let flipped = &files[7];
    let contents = std::fs::read_to_string(flipped).expect("read artifact");
    let tampered = contents.replacen("\"p\":0.", "\"p\":1.", 1);
    assert_ne!(contents, tampered, "the tamper must hit a payload digit");
    std::fs::write(flipped, tampered).expect("tamper");

    let scan = scan_grid(&spec, &dir).expect("scan");
    assert_eq!(scan.corrupt(), 2, "both corruptions must be detected");
    assert_eq!(scan.complete(), spec.num_points() - 2);
    // merge_grid never folds a corrupt file into a report.
    assert!(matches!(
        merge_grid(&spec, &dir),
        Err(GridError::Incomplete { pending: 2, .. })
    ));
    // A resume re-schedules exactly the corrupt points and heals the
    // directory back to the reference bits.
    let healed = run_grid(&spec, &options).expect("healing run");
    assert_eq!(healed.reused, spec.num_points() - 2);
    assert_eq!(healed.produced, 2);
    assert_bitwise_equal(&healed.report, &reference(&spec));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn artifacts_of_a_different_spec_are_invisible_to_resume() {
    // Same directory, two specs differing only in the master seed: the
    // content-addressed names keep their artifact sets disjoint, so neither
    // resume ever reuses (or trips over) the other's files.
    let spec_a = spec();
    let mut spec_b = spec();
    spec_b.settings.master_seed ^= 0xFFFF;
    // Shrink to one curve to keep the double run cheap.
    let shrink = |mut s: GridSpec| {
        s.scenarios = vec![AttackScenario::HonestMining];
        s.gammas = vec![0.5];
        s.ps = vec![0.1, 0.2];
        s
    };
    let spec_a = shrink(spec_a);
    let spec_b = shrink(spec_b);
    assert_ne!(spec_a.digest(), spec_b.digest());
    let dir = fresh_dir("disjoint");
    let options = GridOptions::new(&dir);
    let a = run_grid(&spec_a, &options).expect("run a");
    let b = run_grid(&spec_b, &options).expect("run b");
    assert_eq!(a.report.len(), b.report.len());
    assert_eq!(
        (b.reused, b.produced),
        (0, spec_b.num_points()),
        "b must not reuse a's artifacts"
    );
    // Both directories stay independently resumable.
    assert_eq!(run_grid(&spec_a, &options).expect("re-merge a").produced, 0);
    assert_eq!(run_grid(&spec_b, &options).expect("re-merge b").produced, 0);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn the_fault_clock_is_the_round() {
    // One curve, every point killed in the first two rounds of a run: two
    // rounds leave the whole curve pending, a third heals it, and the healed
    // report matches a fault-free run bit for bit.
    let mut spec = spec();
    spec.scenarios = vec![AttackScenario::HonestMining];
    spec.gammas = vec![0.5];
    spec.ps = vec![0.1, 0.2];
    let faulted = |dir: &PathBuf, max_rounds: usize| {
        let mut options = GridOptions::new(dir);
        options.max_rounds = max_rounds;
        options.fault_plan = Some(GridFaultPlan::kill_every(1, 2));
        run_grid(&spec, &options)
    };

    let dir = fresh_dir("round-clock");
    let error = faulted(&dir, 2).expect_err("two faulted rounds cannot heal");
    assert!(
        matches!(error, GridError::Incomplete { pending, .. } if pending == spec.num_points()),
        "unexpected failure: {error}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let dir = fresh_dir("round-clock-healed");
    let healed = faulted(&dir, 3).expect("the third round heals");
    assert_eq!(healed.rounds, 3);
    assert_eq!(healed.produced, spec.num_points());
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let dir = fresh_dir("round-clock-clean");
    let clean = run_grid(&spec, &GridOptions::new(&dir)).expect("fault-free run");
    assert_eq!(clean.rounds, 1);
    assert_bitwise_equal(&healed.report, &clean.report);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
