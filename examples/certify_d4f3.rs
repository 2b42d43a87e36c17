//! End-to-end certification at the compact-arena scale target: build the
//! `d = 4, f = 3` topology (level budget `l = 2`, ~3.0M states / 22.9M
//! transitions — the only level budget whose reachable set fits the solver's
//! default 12M-state limit), instantiate one `(p, γ)` point and certify its
//! expected relative revenue with the Dinkelbach analysis.
//!
//! ```text
//! cargo run --release --example certify_d4f3
//! ```
//!
//! Runs in the nightly CI job as the scale proof of the compact CSR arena:
//! it must build, instantiate and certify without exhausting memory or the
//! nightly wall-clock budget. Set `SM_EPSILON` to change the certification
//! precision (default `1e-3`); a value that does not parse as a number is an
//! error.

use selfish_mining::experiments::CurveTracker;
use selfish_mining::{AnalysisConfig, ParametricModel, SolverParallelism};
use sm_audit::{audit_certificate, AuditConfig, CertificateArtifact};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let epsilon: f64 = match std::env::var("SM_EPSILON") {
        Ok(value) => value
            .parse()
            .map_err(|e| format!("SM_EPSILON={value:?} is not a number: {e}"))?,
        Err(std::env::VarError::NotPresent) => 1e-3,
        Err(e) => return Err(format!("SM_EPSILON: {e}").into()),
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let start = Instant::now();
    let family = ParametricModel::build(4, 3, 2)?;
    println!(
        "build   d=4 f=3 l=2: {} states, {} pairs, {} transitions in {:.1?}",
        family.num_states(),
        family.num_pairs(),
        family.num_transitions(),
        start.elapsed()
    );
    println!(
        "arena   layout {} B + term tables {} B",
        family.layout_bytes(),
        family.term_table_bytes()
    );

    let (p, gamma) = (0.35, 0.5);
    let stage = Instant::now();
    let config =
        AnalysisConfig::with_epsilon(epsilon).with_parallelism(SolverParallelism::threads(threads));
    let mut tracker = CurveTracker::new(&family, gamma, true, config);
    let solve = tracker.advance(p)?;
    // The arena the tracker instantiated for (p, γ) is the audit's model.
    let model = tracker.into_arena().ok_or("the tracker holds no arena")?;
    println!(
        "instantiate + certify p={p} gamma={gamma} ({threads} threads): \
         beta in [{:.6}, {:.6}] after {} solves, {:.1?}",
        solve.beta_low,
        solve.beta_up,
        solve.steps.len(),
        stage.elapsed()
    );
    assert!(solve.beta_up - solve.beta_low <= epsilon + 1e-12);

    // Package the solve as a certificate artifact, round-trip it through the
    // JSON form nightly CI archives, and re-validate it with the independent
    // auditor — three solver-free residual passes over the 22.9M-transition
    // arena, a few percent of one solve's wall-clock time.
    let stage = Instant::now();
    // Each copy of the 3.0M-entry bias and strategy is dropped as soon as
    // the next one exists: solve → artifact → JSON → parsed artifact.
    let artifact = CertificateArtifact::from_certified(&solve, &model)?;
    drop(solve);
    let json = artifact.to_json();
    drop(artifact);
    let artifact = CertificateArtifact::from_json(&json)?;
    drop(json);
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    println!(
        "audit   digest {:016x}: {} in {:.1?}",
        artifact.fingerprint,
        if report.passed() { "PASS" } else { "FAIL" },
        stage.elapsed()
    );
    if !report.passed() {
        eprintln!("{report}");
        return Err("certificate audit failed".into());
    }
    println!("total   {:.1?}", start.elapsed());
    Ok(())
}
