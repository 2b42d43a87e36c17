//! `curve-d3f2`: the certified, audited d3f2 warm revenue curve.
//!
//! Set-up builds the d3f2 arena (133,299 states, 1.25 M transitions — a
//! working set far beyond L2). Each op certifies one point of the γ = 0.5
//! curve warm from the last (`CurveTracker::advance`, ε = 10⁻³), then
//! packages, encodes, decodes and audits its certificate against the
//! re-instantiated arena. The 7 points are fixed (the seed does not change
//! this workload). A run alternates `PASSES + 1` set-ups with `PASSES`
//! identical passes over the points, each pass on the build before it with a
//! fresh tracker, so that set-up samples and op samples both spread over the
//! whole run.

use crate::measure::{median, thread_cpu_ns, Tracer};
use crate::{timed_setup, ModelSizes, OpSample, RunResult};
use selfish_mining::experiments::{CertifiedSolve, CurveTracker};
use selfish_mining::{AnalysisConfig, ParametricModel, SelfishMiningModel};
use sm_audit::{audit_certificate, AuditConfig, CertificateArtifact, Fnv1a};

const GAMMA: f64 = 0.5;
const EPSILON: f64 = 1e-3;
/// The paper's p range at a 0.05 step: 0.00, 0.05, …, 0.30.
const POINTS: usize = 7;
const PASSES: usize = 4;

/// The checks every certified point must pass.
fn check_solve(solve: &CertifiedSolve, failures: &mut Vec<String>) {
    if solve.beta_up - solve.beta_low > EPSILON + 1e-12 {
        failures.push(format!(
            "bracket [{}, {}] wider than epsilon",
            solve.beta_low, solve.beta_up
        ));
    }
    if !(solve.beta_low <= solve.strategy_revenue && solve.strategy_revenue <= solve.beta_up) {
        failures.push(format!(
            "strategy revenue {} outside [{}, {}]",
            solve.strategy_revenue, solve.beta_low, solve.beta_up
        ));
    }
}

/// Packages, encodes, decodes and audits `solve` against `audit_model`,
/// re-instantiated at the solve's point. Returns the artifact's JSON size.
fn audit(
    tr: &mut Tracer,
    family: &ParametricModel,
    audit_model: &mut SelfishMiningModel,
    solve: &CertifiedSolve,
) -> Result<usize, String> {
    tr.record("core.instantiate", || {
        family.instantiate_into(audit_model, solve.p, GAMMA)
    })
    .map_err(|e| format!("re-instantiate: {e}"))?;
    let artifact = tr.record("audit.package", || {
        CertificateArtifact::from_certified(solve, audit_model)
    })?;
    let json = tr.record("audit.encode", || artifact.to_json());
    let decoded = tr.record("audit.decode", || CertificateArtifact::from_json(&json))?;
    let report = tr.record("audit.check", || {
        audit_certificate(&decoded, audit_model, &AuditConfig::default())
    });
    if report.passed() {
        Ok(json.len())
    } else {
        Err(format!("audit failed: {:?}", report.failures()))
    }
}

/// One pass over the curve on `family`, from a fresh tracker.
fn pass(
    pass: usize,
    family: &ParametricModel,
    tr: &mut Tracer,
    out: &mut RunResult,
    artifact_bytes: &mut Vec<f64>,
) -> Result<(), String> {
    let fresh = || family.instantiate(0.0, GAMMA);
    let (tracker_arena, mut audit_model) = fresh()
        .and_then(|arena| Ok((arena, fresh()?)))
        .map_err(|e| format!("d3f2 instantiate: {e}"))?;
    let config = AnalysisConfig::with_epsilon(EPSILON);
    let mut tracker =
        CurveTracker::new(family, GAMMA, true, config).with_arena(Some(tracker_arena));
    let mut digest = Fnv1a::new();
    let mut pass_bytes = 0u64;
    for op in 0..POINTS {
        let p = (5 * op) as f64 / 100.0;
        tr.set_op(Some(pass * POINTS + op));
        let op_start = thread_cpu_ns();
        tr.begin("op");
        let mut failures = Vec::new();
        let solve_start = thread_cpu_ns();
        let solved = tr.record("mdp.advance", || tracker.advance(p));
        let solve_s = (thread_cpu_ns() - solve_start) as f64 * 1e-9;
        match solved {
            Err(e) => failures.push(format!("advance: {e}")),
            Ok(solve) => {
                check_solve(&solve, &mut failures);
                for value in [solve.beta_low, solve.beta_up, solve.strategy_revenue] {
                    digest.write_u64(value.to_bits());
                }
                match audit(tr, family, &mut audit_model, &solve) {
                    Ok(bytes) => {
                        artifact_bytes.push(bytes as f64);
                        pass_bytes += bytes as u64;
                    }
                    Err(e) => failures.push(e),
                }
            }
        }
        tr.end();
        let cpu_s = (thread_cpu_ns() - op_start) as f64 * 1e-9;
        for failure in &failures {
            out.failures
                .push(format!("pass {pass} op {op} (p = {p}): {failure}"));
        }
        out.ops.push(OpSample {
            op,
            traced: tr.recording(),
            cpu_s,
            solve_s,
            hit: false,
            ok: failures.is_empty(),
        });
    }
    tr.set_op(None);
    out.count("audit.artifact_bytes_total", pass_bytes);
    out.count("curve.result_digest", digest.finish());
    Ok(())
}

pub fn run(_seed: u64, tr: &mut Tracer) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let mut artifact_bytes = Vec::new();
    let mut last = None;
    for i in 0..=PASSES {
        // Drop the previous build first: the peak is that of one build.
        drop(last.take());
        tr.start_pass(i);
        let (family, setup_s) = timed_setup(tr, |tr| {
            tr.record("core.build", || ParametricModel::build(3, 2, 4))
                .map_err(|e| format!("d3f2 build: {e}"))
        })?;
        out.setup_s.push(setup_s);
        if i < PASSES {
            pass(i, &family, tr, &mut out, &mut artifact_bytes)?;
        }
        last = Some(family);
    }
    let family = last.ok_or("no set-up ran")?;

    let sizes = ModelSizes::of(&family);
    out.count("core.states", sizes.states as u64);
    out.count("core.transitions", sizes.transitions as u64);
    out.count("core.pairs", family.num_pairs() as u64);
    out.count("core.arena_bytes", sizes.arena_bytes as u64);

    if tr.enabled() {
        let instantiate_ms = median(&tr.durations_ms("core.instantiate"));
        let advance_ms = median(&tr.durations_ms("mdp.advance"));
        out.core_layers(tr, sizes);
        out.layer("core.instantiate_ms", instantiate_ms);
        out.layer("mdp.advance_ms", advance_ms);
        out.layer("mdp.solve_ms", advance_ms - instantiate_ms);
        for (metric, span) in [
            ("audit.package_ms", "audit.package"),
            ("audit.encode_ms", "audit.encode"),
            ("audit.decode_ms", "audit.decode"),
            ("audit.check_ms", "audit.check"),
        ] {
            out.layer(metric, median(&tr.durations_ms(span)));
        }
        out.layer("audit.artifact_bytes", median(&artifact_bytes));
    }
    Ok(out)
}
