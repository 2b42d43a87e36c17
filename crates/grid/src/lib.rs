//! The conformance/certification grid of the paper's evaluation —
//! `(scenario, backend, d, f, γ, p)` — and its one runner, plus the Figure 2
//! revenue sweep over the same grid definition ([`SweepConfig`]).
//!
//! [`run_grid`] certifies every grid point with an ε-certificate and
//! witnesses it with the Monte-Carlo estimator. The grid is cut into
//! **idempotent point-jobs** with durable per-point artifacts, so a run
//! that crashes (an OOM-killed CI runner, a pre-empted shared machine)
//! resumes from whatever its predecessor durably finished:
//!
//! * every grid point is serialized as one versioned `sm-grid/v1` JSON file
//!   ([`PointArtifact`], written via the dependency-free `sm_audit::json`
//!   machinery, floats round-tripping bit for bit), **content-addressed** by
//!   the point's canonical key — the grid-config digest plus the curve and
//!   `p` indices — and carrying an FNV-1a fingerprint of its own payload;
//! * a work-queue runner ([`run_grid`]) fans **shard jobs** (contiguous runs
//!   of one curve's missing points) over the workspace's one job loop
//!   ([`selfish_mining::run_budgeted_jobs`]) with bounded retry + exponential
//!   backoff ([`RetryPolicy`]) and an optional fault-injection
//!   hook ([`GridFaultPlan`]: kill/poison/delay selected jobs — for tests
//!   and CI smoke runs, never production);
//! * resume is the default: every run starts by scanning the artifact
//!   directory ([`scan_grid`]), verifying each file's fingerprint and
//!   coordinates, and scheduling **only** the missing or corrupt points;
//! * the merge folds completed artifacts in canonical point order into one
//!   [`ConformanceReport`] that is `f64::to_bits`-identical to an
//!   uninterrupted warm-started pass over every curve — for any worker
//!   count, shard size, crash/resume schedule or retry history.
//!
//! # Why sharded jobs can be bit-identical to the warm-started pass
//!
//! Within a curve, consecutive `p` points warm-start each other, so a
//! point's certificate depends on the curve's `p`-prefix. A certificate
//! is, however, a *pure function* of the family,
//! `γ`, the analysis config and the sequence of `advance`d points before it
//! — never of thread counts (see [`CurveTracker`]). A shard job therefore
//! opens a fresh tracker and replays the curve's canonical prefix
//! (`ps[0..=last_target]`) before emitting its assigned points: replaying
//! the prefix reproduces the warm chain's bits exactly, which is what makes
//! the jobs idempotent *and* mergeable byte for byte.
//!
//! ```
//! use selfish_mining::AttackScenario;
//! use sm_conformance::ConformanceSettings;
//! use sm_grid::{run_grid, GridOptions, GridSpec};
//!
//! let spec = GridSpec {
//!     attack_grid: vec![(1, 1)],
//!     scenarios: vec![AttackScenario::Optimal],
//!     max_fork_length: 4,
//!     epsilon: 1e-2,
//!     gammas: vec![0.5],
//!     ps: vec![0.2],
//!     settings: ConformanceSettings {
//!         steps: 2_000,
//!         max_replicas: 4,
//!         tolerance: 5e-2,
//!         ..ConformanceSettings::default()
//!     },
//! };
//! let dir = std::env::temp_dir().join(format!("sm-grid-doc-{}", std::process::id()));
//! let first = run_grid(&spec, &GridOptions::new(&dir)).unwrap();
//! assert_eq!(first.report.len(), 1);
//! assert_eq!(first.produced, 1);
//! // Re-running over the same artifact directory is a no-op: every point is
//! // already durable, verified by fingerprint and merged as-is.
//! let resumed = run_grid(&spec, &GridOptions::new(&dir)).unwrap();
//! assert_eq!(resumed.produced, 0);
//! assert_eq!(resumed.reused, 1);
//! assert_eq!(first.report, resumed.report);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! [`CurveTracker`]: selfish_mining::experiments::CurveTracker
//! [`ConformanceReport`]: sm_conformance::ConformanceReport

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod fault;
mod runner;
mod spec;
mod sweep;

pub use artifact::{artifact_file_name, PointArtifact, GRID_SCHEMA};
pub use fault::{FaultKind, GridFault, GridFaultPlan};
pub use runner::{
    merge_grid, run_grid, scan_grid, GridOptions, GridOutcome, GridScan, PointState, RetryPolicy,
};
pub use spec::{GridError, GridSpec, PointCoordinates};
pub use sweep::SweepConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_with_retry;
    use selfish_mining::experiments::{CurveTracker, Figure2Point};
    use selfish_mining::{
        AnalysisConfig, AttackScenario, ConsensusBackend, ParametricModel, SelfishMiningError,
    };
    use sm_conformance::{ConformanceError, ConformanceReport, ConformanceSettings};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn small_config(workers: usize) -> SweepConfig {
        SweepConfig {
            attack_grid: vec![(1, 1), (2, 1)],
            epsilon: 5e-3,
            workers,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn engine_is_deterministic_across_worker_counts() {
        let gammas = [0.0, 0.5];
        let ps = [0.1, 0.2, 0.3];
        let one = small_config(1).run(&gammas, &ps).unwrap();
        let four = small_config(4).run(&gammas, &ps).unwrap();
        assert_eq!(one.len(), gammas.len() * ps.len());
        assert_eq!(one, four, "curve jobs are independent and deterministic");
    }

    #[test]
    fn warm_and_cold_sweeps_agree_within_epsilon() {
        let gamma = 0.25;
        let ps = [0.1, 0.2, 0.3];
        let config = small_config(2);
        let warm = config.run(&[gamma], &ps).unwrap();
        for (index, &(depth, forks)) in config.attack_grid.iter().enumerate() {
            let family = ParametricModel::build(depth, forks, config.max_fork_length).unwrap();
            let mut cold = CurveTracker::new(
                &family,
                gamma,
                false,
                AnalysisConfig::with_epsilon(config.epsilon),
            );
            for (point, &p) in warm.iter().zip(&ps) {
                let a = point.attack_revenue[index];
                let b = cold.advance(p).unwrap().strategy_revenue;
                assert!(
                    (a - b).abs() < 2.0 * 5e-3,
                    "warm {a} vs cold {b} at p = {p}"
                );
            }
        }
    }

    #[test]
    fn masked_gamma_edges_run_through_the_engine() {
        // γ ∈ {0, 1} exercises the structurally-kept masked branches end to
        // end through instantiation, solving and baseline extraction.
        let points = small_config(2).run(&[0.0, 1.0], &[0.0, 0.3]).unwrap();
        assert_eq!(points.len(), 4);
        for point in &points {
            for &revenue in &point.attack_revenue {
                assert!((0.0..=1.0).contains(&revenue), "revenue {revenue}");
            }
            assert!(point.attack_revenue[1] >= point.honest_revenue - 5e-3);
        }
    }

    #[test]
    fn invalid_grid_surfaces_the_construction_error() {
        let config = SweepConfig {
            attack_grid: vec![(0, 1)],
            ..SweepConfig::default()
        };
        assert!(config.run(&[0.5], &[0.1]).is_err());
    }

    #[test]
    fn run_rejects_non_finite_epsilon_and_out_of_range_grids_up_front() {
        let expect_invalid = |result: Result<Vec<Figure2Point>, SelfishMiningError>,
                              expected: &'static str| {
            match result {
                Err(SelfishMiningError::InvalidParameter { name, .. }) => {
                    assert_eq!(name, expected)
                }
                other => panic!("expected InvalidParameter({expected}), got {other:?}"),
            }
        };
        for bad_epsilon in [f64::NAN, f64::INFINITY, 0.0, -1e-3] {
            let config = SweepConfig {
                epsilon: bad_epsilon,
                ..small_config(1)
            };
            expect_invalid(config.run(&[0.5], &[0.1]), "epsilon");
        }
        let config = small_config(1);
        for bad_share in [f64::NAN, f64::INFINITY, -0.1, 1.1] {
            expect_invalid(config.run(&[bad_share], &[0.1]), "gamma");
            expect_invalid(config.run(&[0.5], &[bad_share]), "p");
        }
    }

    /// A fresh, not yet existing artifact directory under the system temp
    /// dir, unique within this test process.
    fn fresh_dir() -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sm-grid-unit-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Runs `spec` under a `workers` thread budget in a fresh artifact
    /// directory, removed afterwards, and returns the merged report.
    fn run_fresh(spec: &GridSpec, workers: usize) -> Result<ConformanceReport, GridError> {
        let dir = fresh_dir();
        let mut options = GridOptions::new(&dir);
        options.workers = workers;
        let outcome = run_grid(spec, &options);
        let _ = std::fs::remove_dir_all(&dir);
        outcome.map(|outcome| outcome.report)
    }

    fn small_conformance_settings() -> ConformanceSettings {
        ConformanceSettings {
            steps: 12_000,
            max_replicas: 12,
            tolerance: 8e-3,
            ..ConformanceSettings::default()
        }
    }

    fn spec(
        attack_grid: &[(usize, usize)],
        scenarios: &[AttackScenario],
        epsilon: f64,
        gammas: &[f64],
        ps: &[f64],
    ) -> GridSpec {
        GridSpec {
            attack_grid: attack_grid.to_vec(),
            scenarios: scenarios.to_vec(),
            max_fork_length: 4,
            epsilon,
            gammas: gammas.to_vec(),
            ps: ps.to_vec(),
            settings: small_conformance_settings(),
        }
    }

    #[test]
    fn conformance_pass_rejects_invalid_inputs_before_building_models() {
        // The (0, 1) grid would error during model construction; the NaN p
        // must win because validation runs first, before the artifact
        // directory is even created.
        let nan_p = spec(
            &[(0, 1)],
            &[AttackScenario::Optimal],
            1e-3,
            &[0.5],
            &[f64::NAN],
        );
        let dir = fresh_dir();
        match run_grid(&nan_p, &GridOptions::new(&dir)) {
            Err(GridError::Conformance(ConformanceError::Analysis(
                SelfishMiningError::InvalidParameter { name, .. },
            ))) => assert_eq!(name, "p"),
            other => panic!("expected InvalidParameter(p), got {other:?}"),
        }
        assert!(!dir.exists(), "a rejected spec must not touch the disk");
        let nan_epsilon = spec(
            &[(1, 1), (2, 1), (2, 2)],
            &[AttackScenario::Optimal],
            f64::NAN,
            &[0.5],
            &[0.1],
        );
        assert!(matches!(
            run_fresh(&nan_epsilon, 1),
            Err(GridError::Conformance(ConformanceError::Analysis(
                SelfishMiningError::InvalidParameter {
                    name: "epsilon",
                    ..
                }
            )))
        ));
    }

    #[test]
    fn conformance_pass_certifies_a_small_grid() {
        let spec = spec(
            &[(2, 1)],
            &[AttackScenario::Optimal],
            5e-3,
            &[0.5],
            &[0.15, 0.3],
        );
        let report = run_fresh(&spec, 2).unwrap();
        assert_eq!(report.len(), 2);
        assert_eq!(report.points[0].p, 0.15);
        assert_eq!(report.points[1].p, 0.3);
        assert!(
            report.all_conform(),
            "violations: {:?}",
            report.violations()
        );
        assert!(report.sources_agree());
    }

    #[test]
    fn short_queue_conformance_sweep_is_bit_identical_across_budget_shapes() {
        // Regression for the nested-budget scheduler: a 2-curve grid on an
        // 8-thread budget (each shard job soaks up 4 intra-solve threads)
        // must match the 2-thread (one thread per job) and fully serial
        // schedules bit for bit — the surplus flows into the solves
        // without being allowed to show up in the report.
        let spec = spec(
            &[(2, 1)],
            &[AttackScenario::Optimal],
            5e-3,
            &[0.0, 0.5],
            &[0.15, 0.3],
        );
        let eight = run_fresh(&spec, 8).unwrap();
        assert_eq!(eight.len(), 4);
        assert_eq!(
            eight,
            run_fresh(&spec, 2).unwrap(),
            "8-thread budget must match 2-worker run"
        );
        assert_eq!(
            eight,
            run_fresh(&spec, 1).unwrap(),
            "8-thread budget must match serial run"
        );
    }

    #[test]
    fn conformance_report_is_deterministic_across_worker_counts() {
        let report = |grid_workers: usize| {
            let spec = GridSpec {
                attack_grid: vec![(1, 1), (2, 1)],
                scenarios: vec![AttackScenario::Optimal],
                max_fork_length: 4,
                epsilon: 1e-2,
                gammas: vec![0.0, 1.0],
                ps: vec![0.1, 0.3],
                settings: ConformanceSettings {
                    steps: 5_000,
                    max_replicas: 8,
                    tolerance: 1e-2,
                    ..ConformanceSettings::default()
                },
            };
            run_fresh(&spec, grid_workers).unwrap()
        };
        let reference = report(1);
        assert_eq!(reference.len(), 8);
        assert_eq!(
            reference,
            report(4),
            "the grid pool must not affect the report"
        );
    }

    #[test]
    fn scenario_conformance_pass_orders_and_certifies_the_family() {
        let scenarios = [
            AttackScenario::Optimal,
            AttackScenario::LeadStubborn,
            AttackScenario::HonestMining,
        ];
        let spec = spec(&[(2, 1)], &scenarios, 5e-3, &[0.5], &[0.3]);
        let report = run_fresh(&spec, 2).unwrap();
        assert_eq!(report.len(), 3);
        assert_eq!(report.points[0].scenario, "optimal");
        assert_eq!(report.points[1].scenario, "lead-stubborn");
        assert_eq!(report.points[2].scenario, "honest-mining");
        assert!(
            report.all_conform(),
            "violations: {:?}",
            report.violations()
        );
        // Restriction dominance on the certified brackets...
        assert!(
            report.points[1].certified_lower <= report.points[0].certified_upper + 1e-9,
            "lead-stubborn must not certify above the optimum"
        );
        assert!(report.dominance_violations(1e-9).is_empty());
        // ...and the honest sanity anchor certifies the proportional share.
        assert!(
            (report.points[2].strategy_revenue - 0.3).abs() <= 5e-3,
            "honest-mining revenue {} should be p = 0.3",
            report.points[2].strategy_revenue
        );
        assert!(report.honest_anchor_violations(5e-3).is_empty());
        // Scenario jobs are deterministic across pool shapes too.
        assert_eq!(report, run_fresh(&spec, 1).unwrap());
    }

    #[test]
    fn mixed_backend_conformance_batch_is_bit_identical_across_worker_counts() {
        // The backend × scenario matrix under every pool shape the CI and
        // the acceptance criteria exercise: grid workers 1/2/4/8 must produce
        // byte-for-byte the same report. Cheap backends keep the matrix affordable; the space-time
        // budget (vdfs = 1 < σ-capable depths) exercises the capped law.
        let settings = ConformanceSettings {
            steps: 4_000,
            max_replicas: 8,
            tolerance: 1e-12, // never met: every run does the full budget
            backends: vec![
                ConsensusBackend::Bernoulli,
                ConsensusBackend::PoStake,
                ConsensusBackend::Vdf,
                ConsensusBackend::Post { vdfs: 1 },
            ],
            ..ConformanceSettings::default()
        };
        let run = |grid_workers: usize| {
            let spec = GridSpec {
                attack_grid: vec![(2, 1)],
                scenarios: vec![AttackScenario::Optimal, AttackScenario::HonestMining],
                max_fork_length: 4,
                epsilon: 1e-2,
                gammas: vec![0.5],
                ps: vec![0.1, 0.3],
                settings: settings.clone(),
            };
            run_fresh(&spec, grid_workers).unwrap()
        };
        let reference = run(1);
        assert_eq!(reference.len(), 4);
        for point in &reference.points {
            assert_eq!(point.estimates.len(), 4);
            assert_eq!(point.estimates[1].backend, ConsensusBackend::PoStake);
        }
        for grid_workers in [2, 4, 8] {
            assert_eq!(
                reference,
                run(grid_workers),
                "grid workers = {grid_workers} changed the report"
            );
        }
    }

    #[test]
    fn conformance_pass_with_empty_p_grid_is_empty() {
        let spec = spec(&[(1, 1)], &[AttackScenario::Optimal], 1e-3, &[0.5], &[]);
        let report = run_fresh(&spec, 1).unwrap();
        assert!(report.is_empty());
        assert!(report.all_conform());
    }

    #[test]
    fn retry_returns_first_success_and_reports_attempt_numbers() {
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let mut seen = Vec::new();
        let outcome: Result<usize, &str> = run_with_retry(&policy, |attempt| {
            seen.push(attempt);
            if attempt < 2 {
                Err("transient")
            } else {
                Ok(attempt * 10)
            }
        });
        assert_eq!(outcome, Ok(20));
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn retry_exhausts_the_budget_and_returns_the_last_error() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let outcome: Result<(), String> =
            run_with_retry(&policy, |attempt| Err(format!("attempt {attempt}")));
        assert_eq!(outcome, Err("attempt 2".to_string()));
        // A zero budget still runs the job once.
        let zero = RetryPolicy {
            max_attempts: 0,
            ..policy
        };
        let mut calls = 0;
        let _: Result<(), &str> = run_with_retry(&zero, |_| {
            calls += 1;
            Err("always")
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 8,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(policy.delay_before(1), Duration::from_millis(10));
        assert_eq!(policy.delay_before(2), Duration::from_millis(20));
        assert_eq!(policy.delay_before(3), Duration::from_millis(35));
        assert_eq!(policy.delay_before(60), Duration::from_millis(35));
    }
}
