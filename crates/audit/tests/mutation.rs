//! Mutation tests of the certificate audit: every corruption class the
//! artifact format admits must be rejected with the matching obligation
//! named, and untouched artifacts from the reduced conformance grid must
//! pass — including after a JSON round trip.

use selfish_mining::experiments::{attack_curve, CertifiedSolve};
use selfish_mining::{AnalysisConfig, ParametricModel, SelfishMiningModel};
use sm_audit::{
    audit_certificate, audit_model, audit_parametric, audit_scenario_restriction, AuditConfig,
    CertificateArtifact, Obligation,
};

const EPSILON: f64 = 1e-3;

fn family() -> ParametricModel {
    ParametricModel::build(2, 1, 4).expect("d2f1 family builds")
}

fn certified(family: &ParametricModel, gamma: f64, ps: &[f64]) -> Vec<CertifiedSolve> {
    attack_curve(family, gamma, ps, AnalysisConfig::with_epsilon(EPSILON))
        .expect("certified curve solves")
}

fn artifact_for(
    family: &ParametricModel,
    solve: &CertifiedSolve,
) -> (CertificateArtifact, SelfishMiningModel) {
    let model = family
        .instantiate(solve.p, solve.gamma)
        .expect("instantiation succeeds");
    let artifact = CertificateArtifact::from_certified(solve, &model).expect("artifact packages");
    (artifact, model)
}

/// One (p, γ) point with its artifact and freshly instantiated arena — the
/// baseline every mutation perturbs.
fn baseline() -> (CertificateArtifact, SelfishMiningModel) {
    let family = family();
    let solves = certified(&family, 0.5, &[0.3]);
    artifact_for(&family, &solves[0])
}

#[test]
fn clean_artifacts_pass_on_the_reduced_grid() {
    let family = family();
    for &gamma in &[0.0, 0.5, 1.0] {
        for solve in certified(&family, gamma, &[0.1, 0.2, 0.3]) {
            let (artifact, model) = artifact_for(&family, &solve);
            let report = audit_certificate(&artifact, &model, &AuditConfig::default());
            assert!(
                report.passed(),
                "clean certificate (p={}, gamma={gamma}) rejected:\n{report}",
                solve.p
            );
        }
    }
}

#[test]
fn clean_artifacts_survive_a_json_round_trip() {
    let (artifact, model) = baseline();
    let reparsed = CertificateArtifact::from_json(&artifact.to_json()).expect("round trip parses");
    assert_eq!(reparsed, artifact);
    let report = audit_certificate(&reparsed, &model, &AuditConfig::default());
    assert!(
        report.passed(),
        "round-tripped certificate rejected:\n{report}"
    );
}

#[test]
fn flipped_fingerprint_fails_fingerprint_and_skips_residuals() {
    let (mut artifact, model) = baseline();
    artifact.fingerprint ^= 1;
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::Fingerprint), "{report}");
    let skipped = report
        .outcome(Obligation::LowerBound)
        .expect("lower bound recorded");
    assert!(
        !skipped.passed && skipped.detail.contains("skipped"),
        "{report}"
    );
}

#[test]
fn wrong_arena_point_fails_fingerprint() {
    let family = family();
    let solves = certified(&family, 0.5, &[0.3]);
    let (artifact, _) = artifact_for(&family, &solves[0]);
    let other = family
        .instantiate(0.2, 0.5)
        .expect("instantiation succeeds");
    let report = audit_certificate(&artifact, &other, &AuditConfig::default());
    assert!(report.failed(Obligation::Fingerprint), "{report}");
}

#[test]
fn out_of_range_strategy_choice_fails_totality() {
    let (mut artifact, model) = baseline();
    artifact.strategy[0] = 99;
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::StrategyTotality), "{report}");
}

#[test]
fn truncated_bias_fails_bias_shape() {
    let (mut artifact, model) = baseline();
    artifact.bias.pop();
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::BiasShape), "{report}");
}

#[test]
fn non_finite_bias_fails_bias_shape() {
    let (mut artifact, model) = baseline();
    artifact.bias[3] = f64::NAN;
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::BiasShape), "{report}");
}

#[test]
fn widened_interval_fails_beta_interval() {
    let (mut artifact, model) = baseline();
    artifact.beta_low -= 0.05;
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::BetaInterval), "{report}");
}

#[test]
fn revenue_outside_bracket_fails_revenue_in_bracket() {
    let (mut artifact, model) = baseline();
    artifact.strategy_revenue = artifact.beta_up + 2.0 * EPSILON;
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::RevenueInBracket), "{report}");
}

#[test]
fn bracket_shifted_up_fails_lower_bound() {
    let (mut artifact, model) = baseline();
    // Claim 0.1 more revenue than certified, keeping the bracket narrow and
    // internally consistent — only the residual passes can catch this.
    artifact.beta_low += 0.1;
    artifact.beta_up += 0.1;
    artifact.strategy_revenue += 0.1;
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::LowerBound), "{report}");
}

#[test]
fn bracket_shifted_down_fails_upper_bound() {
    let (mut artifact, model) = baseline();
    artifact.beta_low -= 0.1;
    artifact.beta_up -= 0.1;
    artifact.strategy_revenue -= 0.1;
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::UpperBound), "{report}");
}

#[test]
fn arbitrary_bias_vector_fails_residual_span() {
    let (mut artifact, model) = baseline();
    // An all-zero "witness" satisfies every shape obligation but is not a
    // converged bias; the span check rejects it.
    artifact.bias.iter_mut().for_each(|h| *h = 0.0);
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::BiasResidualSpan), "{report}");
}

#[test]
fn foreign_strategy_fails_revenue_consistency() {
    let (mut artifact, model) = baseline();
    // Replace the exported strategy with "always action 0" (total, in
    // range): its induced chain cannot have gain zero at the optimal
    // strategy's claimed revenue.
    artifact.strategy.iter_mut().for_each(|choice| *choice = 0);
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::RevenueConsistent), "{report}");
}

#[test]
fn non_positive_epsilon_fails_fingerprint() {
    let (mut artifact, model) = baseline();
    artifact.epsilon = 0.0;
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::Fingerprint), "{report}");
}

#[test]
fn corrupted_json_artifacts_fail_the_matching_obligation() {
    let (artifact, model) = baseline();
    // Corrupt through the serialized form: swap the bracket ends.
    let json = artifact.to_json().replace(
        &format!("\"beta_low\":{:?}", artifact.beta_low),
        &format!("\"beta_low\":{:?}", artifact.beta_up + EPSILON),
    );
    let corrupt = CertificateArtifact::from_json(&json).expect("still parses");
    let report = audit_certificate(&corrupt, &model, &AuditConfig::default());
    assert!(report.failed(Obligation::BetaInterval), "{report}");
}

#[test]
fn instantiated_models_pass_the_arena_audit() {
    let family = family();
    let violations = audit_parametric(&family);
    assert!(violations.is_empty(), "{violations:?}");
    for &(p, gamma) in &[(0.1, 0.0), (0.3, 0.5), (0.45, 1.0)] {
        let model = family
            .instantiate(p, gamma)
            .expect("instantiation succeeds");
        let violations = audit_model(&model);
        assert!(
            violations.is_empty(),
            "(p={p}, gamma={gamma}): {violations:?}"
        );
    }
}

#[test]
fn corrupted_probability_mass_fails_the_arena_audit() {
    use sm_audit::audit_mdp;
    use sm_mdp::CsrMdpBuilder;
    let mut builder = CsrMdpBuilder::new();
    builder.begin_state();
    builder
        .add_action("a", &[(0, 0.5), (1, 0.5)])
        .expect("valid action");
    builder.begin_state();
    builder.add_action("b", &[(0, 1.0)]).expect("valid action");
    let mut mdp = builder.finish(0).expect("valid arena builds");
    assert!(audit_mdp(&mdp).is_empty());
    // Corrupt one weight after construction (the builder rejects bad mass
    // up front, so post-hoc reweighting is the only way in).
    let good = mdp.probabilities().to_vec();
    mdp.reweight_in_place(|k| if k == 0 { good[0] + 0.25 } else { good[k] });
    let violations = audit_mdp(&mdp);
    assert!(
        violations.iter().any(|v| v.contains("probability mass")),
        "{violations:?}"
    );
}

#[test]
fn scenario_arenas_are_action_subsets_of_the_optimal_arena() {
    use selfish_mining::AttackScenario;
    let optimal = family()
        .instantiate(0.3, 0.5)
        .expect("instantiation succeeds");
    for scenario in AttackScenario::default_family() {
        if !scenario.is_action_restriction() {
            continue;
        }
        let restricted = ParametricModel::build_scenario(scenario, 2, 1, 4)
            .expect("scenario family builds")
            .instantiate(0.3, 0.5)
            .expect("instantiation succeeds");
        let violations = audit_scenario_restriction(&optimal, &restricted);
        assert!(
            violations.is_empty(),
            "{}: {violations:?}",
            restricted.scenario().label()
        );
    }
}

#[test]
fn parameter_mismatch_fails_the_restriction_audit() {
    let optimal = family()
        .instantiate(0.3, 0.5)
        .expect("instantiation succeeds");
    let other = family()
        .instantiate(0.2, 0.5)
        .expect("instantiation succeeds");
    let violations = audit_scenario_restriction(&optimal, &other);
    assert!(!violations.is_empty());
}
