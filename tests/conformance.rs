//! Integration tests of the statistical-conformance subsystem: the
//! Monte-Carlo estimator, the strategy export, and the solver-vs-simulator
//! certification driven through the grid runner.

use selfish_mining::baselines::honest_relative_revenue;
use selfish_mining::experiments::attack_curve;
use selfish_mining::{
    AnalysisConfig, AttackScenario, ConsensusBackend, ParametricModel, StrategyExport,
};
use sm_chain::{HonestStrategy, SimulationConfig, UnknownViewPolicy};
use sm_conformance::{certify_point, estimate_revenue, ConformanceSettings, EstimatorConfig};
use sm_grid::{run_grid, GridOptions, GridSpec};

fn estimator_config(p: f64, gamma: f64, steps: usize, seed: u64) -> EstimatorConfig {
    EstimatorConfig {
        simulation: SimulationConfig {
            p,
            gamma,
            steps,
            seed,
            ..SimulationConfig::default()
        },
        ..EstimatorConfig::default()
    }
}

/// Property: the simulator running the honest strategy reproduces the
/// analytic honest baseline `ERRev = p` within the estimator's own CLT
/// confidence half-width, across a seeded `(p, γ)` grid and under both
/// historical consensus backends.
#[test]
fn honest_simulation_matches_analytic_baseline_within_ci() {
    for (i, &p) in [0.0, 0.1, 0.35].iter().enumerate() {
        for (j, &gamma) in [0.0, 1.0].iter().enumerate() {
            for backend in [ConsensusBackend::Bernoulli, ConsensusBackend::PowLottery] {
                let seed = 0xBEEF + (i * 3 + j) as u64;
                let config = EstimatorConfig {
                    // One 12-replica round: a 4-replica variance estimate is
                    // too noisy to serve as the comparison yardstick.
                    min_replicas: 12,
                    batch: 12,
                    ..estimator_config(p, gamma, 16_000, seed)
                };
                let estimate = estimate_revenue(&config, &HonestStrategy, backend).unwrap();
                let analytic = honest_relative_revenue(p).unwrap();
                // The floor covers the O(1/n) ratio-estimator bias of a
                // finite run, which the CLT interval does not model.
                assert!(
                    (estimate.mean - analytic).abs() <= estimate.half_width.max(2e-3),
                    "p={p} gamma={gamma} {}: mean {} vs analytic {analytic} (hw {})",
                    backend.label(),
                    estimate.mean,
                    estimate.half_width
                );
                assert_eq!(estimate.unknown_views, 0);
            }
        }
    }
}

/// The full certification path — certified solve, strategy export,
/// Monte-Carlo witness under every configured backend — agrees with the solver's
/// ε-certificate, and the report is bit-identical for any grid worker
/// count.
#[test]
fn certified_point_conforms_and_certification_is_deterministic() {
    let family = ParametricModel::build(2, 1, 4).unwrap();
    let solves = attack_curve(&family, 0.5, &[0.3], AnalysisConfig::with_epsilon(5e-3)).unwrap();
    // The family-skeleton export and the instantiated-model export are the
    // same translation; certify through the former, assert against the
    // latter.
    let export = StrategyExport::from_family(&family);
    let model = family.instantiate(0.3, 0.5).unwrap();
    let table_via_model = StrategyExport::new(&model)
        .table(&solves[0].strategy, UnknownViewPolicy::Wait)
        .unwrap();
    let settings = ConformanceSettings {
        steps: 20_000,
        max_replicas: 16,
        tolerance: 5e-3,
        ..ConformanceSettings::default()
    };
    let point = certify_point(&export, &solves[0], &settings).unwrap();
    assert_eq!(point.table_entries, table_via_model.len());
    assert!(
        point.conforms(),
        "simulation CI misses the certificate: {point:?}"
    );
    assert!(point.sources_agree(), "arrival sources disagree: {point:?}");
    assert!(point.strategy_revenue >= point.certified_lower - 1e-12);
    assert!(point.strategy_revenue <= point.certified_upper + 1e-12);

    // One grid-driven certification, twice with different pool shapes, each
    // in a fresh artifact directory.
    let run = |grid_workers: usize| {
        let spec = GridSpec {
            attack_grid: vec![(2, 1)],
            scenarios: vec![AttackScenario::Optimal],
            max_fork_length: 4,
            epsilon: 1e-2,
            gammas: vec![0.5],
            ps: vec![0.2, 0.3],
            settings: ConformanceSettings {
                steps: 10_000,
                max_replicas: 12,
                tolerance: 8e-3,
                ..ConformanceSettings::default()
            },
        };
        let dir = std::env::temp_dir().join(format!(
            "sm-conformance-test-{}-{grid_workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut options = GridOptions::new(&dir);
        options.workers = grid_workers;
        let report = run_grid(&spec, &options).unwrap().report;
        std::fs::remove_dir_all(&dir).unwrap();
        report
    };
    let a = run(1);
    let b = run(3);
    assert_eq!(a, b, "conformance reports must not depend on worker counts");
    assert_eq!(a.len(), 2);
    assert!(a.all_conform(), "violations: {:?}", a.violations());
}
