//! Properties of the pluggable attack-scenario subsystem: restriction
//! dominance of the stubborn family, the honest-mining sanity anchor, and
//! end-to-end conformance of scenario strategies in the simulator.

use selfish_mining::experiments::attack_curve;
use selfish_mining::{AnalysisConfig, AttackScenario, ParametricModel, StrategyExport};
use selfish_mining_repro::conformance::{certify_point, ConformanceSettings};

/// Slack absorbing solver float noise when comparing two certified brackets.
const SLACK: f64 = 1e-9;

fn stubborn_scenarios() -> Vec<AttackScenario> {
    vec![
        AttackScenario::LeadStubborn,
        AttackScenario::EqualForkStubborn,
        AttackScenario::TrailStubborn { lag: 0 },
        AttackScenario::TrailStubborn { lag: 1 },
    ]
}

/// Property: a stubborn scenario is an action restriction of the optimal
/// model, so its certified gain never exceeds the optimal scenario's
/// certified gain — `β_low(scenario) ≤ β_up(optimal)` at every grid point.
#[test]
fn stubborn_certified_gains_are_dominated_by_the_optimal_scenario() {
    let epsilon = 5e-3;
    let ps = [0.15, 0.3, 0.4];
    let gammas = [0.0, 0.6, 1.0];
    let optimal_family = ParametricModel::build(2, 1, 3).unwrap();
    let stubborn_families: Vec<ParametricModel> = stubborn_scenarios()
        .into_iter()
        .map(|scenario| ParametricModel::build_scenario(scenario, 2, 1, 3).unwrap())
        .collect();
    for &gamma in &gammas {
        let optimal = attack_curve(
            &optimal_family,
            gamma,
            &ps,
            AnalysisConfig::with_epsilon(epsilon),
        )
        .unwrap();
        for family in &stubborn_families {
            assert!(family.scenario().is_action_restriction());
            let restricted =
                attack_curve(family, gamma, &ps, AnalysisConfig::with_epsilon(epsilon)).unwrap();
            for (r, o) in restricted.iter().zip(&optimal) {
                assert_eq!(r.p, o.p);
                assert_eq!(r.scenario, family.scenario());
                assert!(
                    r.beta_low <= o.beta_up + SLACK,
                    "{} certifies [{}, {}] above optimal [{}, {}] at (p={}, gamma={gamma})",
                    family.scenario(),
                    r.beta_low,
                    r.beta_up,
                    o.beta_low,
                    o.beta_up,
                    r.p
                );
                // Restricted revenue stays a valid revenue.
                assert!((0.0..=1.0).contains(&r.strategy_revenue));
            }
        }
    }
}

/// Property: the honest-mining scenario certifies the proportional share
/// `ERRev = p` within the analysis ε across a seeded `(p, γ)` grid — the
/// mining restriction (`σ = 1`) plus the forced immediate release make the
/// adversary exactly an honest miner with resource `p`.
#[test]
fn honest_mining_certifies_the_proportional_share() {
    let epsilon = 2e-3;
    let ps = [0.0, 0.1, 0.3, 0.45];
    let gammas = [0.0, 0.5, 1.0];
    for (depth, forks) in [(1, 1), (2, 1), (2, 2)] {
        let family =
            ParametricModel::build_scenario(AttackScenario::HonestMining, depth, forks, 3).unwrap();
        for &gamma in &gammas {
            let solves =
                attack_curve(&family, gamma, &ps, AnalysisConfig::with_epsilon(epsilon)).unwrap();
            for solve in &solves {
                assert!(
                    (solve.strategy_revenue - solve.p).abs() <= epsilon,
                    "honest-mining (d={depth}, f={forks}) certifies {} instead of p = {} at gamma={gamma}",
                    solve.strategy_revenue,
                    solve.p
                );
                assert!(solve.beta_low <= solve.p + epsilon + SLACK);
                assert!(solve.beta_up >= solve.p - epsilon - SLACK);
            }
        }
    }
}

/// The honest-mining state space is the degenerate chain one expects: no
/// state ever holds more than one private block, and the model stays tiny.
#[test]
fn honest_mining_state_space_is_degenerate() {
    let depth = 3;
    let model = ParametricModel::build_scenario(AttackScenario::HonestMining, depth, 2, 4).unwrap();
    for s in 0..model.num_states() {
        assert!(
            model.state(s).total_private_blocks() <= 1,
            "honest state {} withholds blocks",
            model.state(s)
        );
    }
    // 2^(d-1) owner vectors × the three phases bound the honest chain.
    assert!(model.num_states() <= 3 * (1 << (depth - 1)));
}

/// Every stubborn scenario's reachable states embed into the optimal
/// scenario's reachable set (restriction never invents states).
#[test]
fn stubborn_reachable_states_embed_into_the_optimal_space() {
    let optimal = ParametricModel::build(2, 2, 3).unwrap();
    let optimal_states: std::collections::HashSet<_> = (0..optimal.num_states())
        .map(|s| optimal.state(s).clone())
        .collect();
    for scenario in stubborn_scenarios() {
        let restricted = ParametricModel::build_scenario(scenario, 2, 2, 3).unwrap();
        for s in 0..restricted.num_states() {
            assert!(
                optimal_states.contains(restricted.state(s)),
                "{scenario} reaches {} which the optimal model does not",
                restricted.state(s)
            );
        }
    }
}

/// End-to-end conformance of a non-optimal scenario: the honest-mining
/// strategy replayed in the simulator (tip-only mining regime) witnesses its
/// certificate, with the estimate centred on `p`.
#[test]
fn honest_mining_conforms_in_the_simulator() {
    let family = ParametricModel::build_scenario(AttackScenario::HonestMining, 2, 1, 4).unwrap();
    let solves = attack_curve(&family, 0.5, &[0.3], AnalysisConfig::with_epsilon(2e-3)).unwrap();
    let settings = ConformanceSettings {
        steps: 30_000,
        max_replicas: 24,
        ..ConformanceSettings::default()
    };
    let point =
        certify_point(&StrategyExport::from_family(&family), &solves[0], &settings).unwrap();
    assert_eq!(point.scenario, "honest-mining");
    assert!(point.conforms(), "honest-mining CI misses p: {point:?}");
    assert!(point.sources_agree(), "sources disagree: {point:?}");
    for estimate in &point.estimates {
        assert!(
            (estimate.mean - 0.3).abs() <= estimate.half_width.max(5e-3),
            "{}: mean {} should be near p = 0.3",
            estimate.backend,
            estimate.mean
        );
    }
}

/// End-to-end conformance of a stubborn scenario: the restricted ε-optimal
/// strategy replayed in the (unrestricted-mining) simulator witnesses the
/// restricted certificate.
#[test]
fn lead_stubborn_conforms_in_the_simulator() {
    let family = ParametricModel::build_scenario(AttackScenario::LeadStubborn, 2, 1, 4).unwrap();
    let solves = attack_curve(&family, 0.5, &[0.35], AnalysisConfig::with_epsilon(5e-3)).unwrap();
    let settings = ConformanceSettings {
        steps: 30_000,
        max_replicas: 24,
        ..ConformanceSettings::default()
    };
    let point =
        certify_point(&StrategyExport::from_family(&family), &solves[0], &settings).unwrap();
    assert_eq!(point.scenario, "lead-stubborn");
    assert!(point.conforms(), "lead-stubborn CI misses: {point:?}");
    assert!(point.sources_agree(), "sources disagree: {point:?}");
}
