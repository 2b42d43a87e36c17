//! CI driver for the `sm-audit` static-analysis layer: arena invariant
//! audits on the pinned bench topologies, scenario action-subset proofs,
//! and independent certificate re-validation over the reduced conformance
//! grid — every artifact serialized through JSON and checked by the
//! solver-free auditor. Exits non-zero on any violation so CI can gate.
//!
//! ```text
//! cargo run --release --example audit_certificates              # full audit set
//! cargo run --release --example audit_certificates -- --timing  # + d3f2 cost ratio
//! ```
//!
//! `--timing` additionally certifies one `d = 3, f = 2` point and measures
//! the audit against the solve it re-validates: the audit is three
//! O(transitions) residual passes and must stay under 5% of the solve's
//! wall-clock time (the acceptance bound; ~3.6% measured, dominated by the
//! arena fingerprint and the expected-reward precomputation).

use selfish_mining::experiments::attack_curve;
use selfish_mining::{AnalysisConfig, AttackScenario, ParametricModel};
use sm_audit::{
    audit_certificate, audit_model, audit_parametric, audit_scenario_restriction, AuditConfig,
    CertificateArtifact,
};
use std::process::ExitCode;
use std::time::Instant;

const EPSILON: f64 = 1e-3;

fn main() -> ExitCode {
    let timing = std::env::args().any(|arg| arg == "--timing");
    let mut failures = 0usize;

    // 1. Arena invariants on the pinned topologies (the bench set: d2f1 is
    //    the conformance grid's, d2f2/d3f2 are the perf-gate rows).
    for &(depth, forks, levels) in &[(2usize, 1usize, 4usize), (2, 2, 4), (3, 2, 4)] {
        let label = format!("d{depth}f{forks}l{levels}");
        let family = match ParametricModel::build(depth, forks, levels) {
            Ok(family) => family,
            Err(err) => {
                eprintln!("audit: {label}: build failed: {err}");
                failures += 1;
                continue;
            }
        };
        let mut violations = audit_parametric(&family);
        match family.instantiate(0.3, 0.5) {
            Ok(model) => violations.extend(audit_model(&model)),
            Err(err) => violations.push(format!("instantiation failed: {err}")),
        }
        if violations.is_empty() {
            println!(
                "audit   {label}: arena + term tables clean ({} states, {} transitions)",
                family.num_states(),
                family.num_transitions()
            );
        } else {
            failures += 1;
            eprintln!("audit   {label}: {} violation(s)", violations.len());
            for violation in violations.iter().take(10) {
                eprintln!("        {violation}");
            }
        }
    }

    // 2. Scenario sub-arenas are action subsets of the Optimal arena — the
    //    restriction-dominance precondition, proven exhaustively.
    match scenario_restrictions() {
        Ok(checked) => println!("audit   scenario restrictions: {checked} scenario(s) clean"),
        Err(message) => {
            failures += 1;
            eprintln!("audit   scenario restrictions: {message}");
        }
    }

    // 3. Certificate audits over the reduced conformance grid, through the
    //    serialized artifact form.
    match reduced_grid_certificates() {
        Ok(points) => println!("audit   certificates: {points} grid point(s) re-validated"),
        Err(message) => {
            failures += 1;
            eprintln!("audit   certificates: {message}");
        }
    }

    // 4. Optional: audit-vs-solve cost on the d3f2 row.
    if timing {
        match d3f2_cost_ratio() {
            Ok(ratio) => println!(
                "audit   d3f2 cost: audit/solve = {:.4}% (< 5% required)",
                ratio * 100.0
            ),
            Err(message) => {
                failures += 1;
                eprintln!("audit   d3f2 cost: {message}");
            }
        }
    }

    if failures == 0 {
        println!("audit   PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("audit   FAIL: {failures} section(s) reported violations");
        ExitCode::FAILURE
    }
}

fn scenario_restrictions() -> Result<usize, String> {
    let optimal = ParametricModel::build(2, 1, 4)
        .and_then(|family| family.instantiate(0.3, 0.5))
        .map_err(|err| format!("optimal model failed: {err}"))?;
    let mut checked = 0usize;
    for scenario in AttackScenario::default_family() {
        if !scenario.is_action_restriction() {
            continue;
        }
        let restricted = ParametricModel::build_scenario(scenario, 2, 1, 4)
            .and_then(|family| family.instantiate(0.3, 0.5))
            .map_err(|err| format!("{} failed to build: {err}", scenario.label()))?;
        let violations = audit_scenario_restriction(&optimal, &restricted);
        if !violations.is_empty() {
            return Err(format!(
                "{}: {} violation(s), first: {}",
                scenario.label(),
                violations.len(),
                violations.first().map(String::as_str).unwrap_or("?")
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

fn reduced_grid_certificates() -> Result<usize, String> {
    let family =
        ParametricModel::build(2, 1, 4).map_err(|err| format!("family failed to build: {err}"))?;
    let mut points = 0usize;
    for &gamma in &[0.0, 0.5, 1.0] {
        let solves = attack_curve(
            &family,
            gamma,
            &[0.1, 0.2, 0.3],
            AnalysisConfig::with_epsilon(EPSILON),
        )
        .map_err(|err| format!("gamma {gamma}: solve failed: {err}"))?;
        for solve in solves {
            let model = family
                .instantiate(solve.p, solve.gamma)
                .map_err(|err| format!("instantiation failed: {err}"))?;
            let artifact = CertificateArtifact::from_certified(&solve, &model)
                .map_err(|err| format!("artifact packaging failed: {err}"))?;
            // Round-trip through the serialized form CI would archive.
            let artifact = CertificateArtifact::from_json(&artifact.to_json())
                .map_err(|err| format!("artifact round trip failed: {err}"))?;
            let report = audit_certificate(&artifact, &model, &AuditConfig::default());
            if !report.passed() {
                return Err(format!(
                    "(p = {}, gamma = {}): certificate rejected\n{report}",
                    solve.p, solve.gamma
                ));
            }
            points += 1;
        }
    }
    Ok(points)
}

fn d3f2_cost_ratio() -> Result<f64, String> {
    let family =
        ParametricModel::build(3, 2, 4).map_err(|err| format!("family failed to build: {err}"))?;
    let solve_start = Instant::now();
    let solves = attack_curve(&family, 0.5, &[0.3], AnalysisConfig::with_epsilon(EPSILON))
        .map_err(|err| format!("solve failed: {err}"))?;
    let solve_time = solve_start.elapsed();
    let solve = solves.into_iter().next().ok_or("no solve returned")?;
    let model = family
        .instantiate(solve.p, solve.gamma)
        .map_err(|err| format!("instantiation failed: {err}"))?;
    let artifact = CertificateArtifact::from_certified(&solve, &model)
        .map_err(|err| format!("artifact packaging failed: {err}"))?;
    let audit_start = Instant::now();
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    let audit_time = audit_start.elapsed();
    if !report.passed() {
        return Err(format!("d3f2 certificate rejected\n{report}"));
    }
    let ratio = audit_time.as_secs_f64() / solve_time.as_secs_f64();
    println!(
        "audit   d3f2: solve {:.1?}, audit {:.1?} ({} states)",
        solve_time,
        audit_time,
        model.num_states()
    );
    if ratio >= 0.05 {
        return Err(format!(
            "audit took {:.2}% of solve time (must stay under 5%)",
            ratio * 100.0
        ));
    }
    Ok(ratio)
}
