//! `conformance-d2f1`: the Monte-Carlo witness of certified strategies.
//!
//! Set-up builds d2f1, certifies the γ = 0.5 curve at p ∈ {0.1, 0.2, 0.3},
//! checks the paper anchor (ERRev 0.4105 at p = 0.3) and builds the
//! strategy export. Each op is one `certify_point` under a single consensus
//! backend with the default conformance settings: 3 points × 6 backends =
//! 18 ops, run in an order shuffled by the seed, in `PASSES` identical
//! passes. Set-up takes milliseconds, so before every op it runs a batch of
//! `SETUP_BATCH` timed set-ups (after one that refills the heap) and one
//! sample is the batch's time over `SETUP_BATCH`: each timed stretch rises
//! above timer noise, and the samples spread over the run. The replica
//! streams are the default master
//! seed's, so replica counts repeat exactly and every op is known to
//! conform; the chain simulator, the proof backends and the estimator do
//! almost all the work. It stays at f = 1: at d2f2 the `post(2)` backend
//! correctly fails conformance, because σ > V bends its win law.

use crate::measure::{median, thread_cpu_ns, SplitMix, Tracer};
use crate::{ModelSizes, OpSample, RunResult};
use selfish_mining::experiments::{CertifiedSolve, CurveTracker};
use selfish_mining::{AnalysisConfig, ConsensusBackend, ParametricModel, StrategyExport};
use sm_audit::Fnv1a;
use sm_chain::UnknownViewPolicy;
use sm_conformance::{certify_point, ConformanceSettings};

const GAMMA: f64 = 0.5;
const EPSILON: f64 = 1e-3;
const POINTS: [f64; 3] = [0.1, 0.2, 0.3];
const PASSES: usize = 3;
const SETUP_BATCH: usize = 6;
/// Paper Table/Figure anchor: ERRev at (d = 2, f = 1, p = 0.3, γ = 0.5).
const PAPER_ANCHOR: f64 = 0.4105;

/// Metric-name form of a backend label (`post(2)` → `post-2`), so that
/// every name stays within the letters, digits, `_`, `.` and `-` allowed.
pub fn backend_name(backend: ConsensusBackend) -> String {
    backend.label().replace('(', "-").replace(')', "")
}

fn setup(tr: &mut Tracer) -> Result<(ParametricModel, Vec<CertifiedSolve>), String> {
    let family = tr
        .record("core.build", || ParametricModel::build(2, 1, 4))
        .map_err(|e| format!("d2f1 build: {e}"))?;
    let mut tracker =
        CurveTracker::new(&family, GAMMA, true, AnalysisConfig::with_epsilon(EPSILON));
    let solves = POINTS
        .iter()
        .map(|&p| tr.record("mdp.advance", || tracker.advance(p)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("d2f1 curve: {e}"))?;
    let anchor = solves.last().ok_or("no point was solved")?;
    if !(anchor.beta_low - 5e-5 <= PAPER_ANCHOR && PAPER_ANCHOR <= anchor.beta_up + 5e-5) {
        return Err(format!(
            "paper anchor: certified [{}, {}] misses ERRev {PAPER_ANCHOR}",
            anchor.beta_low, anchor.beta_up
        ));
    }
    Ok((family, solves))
}

pub fn run(seed: u64, tr: &mut Tracer) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let backends = ConsensusBackend::default_family();
    let mut jobs: Vec<(usize, usize)> = (0..POINTS.len())
        .flat_map(|point| (0..backends.len()).map(move |backend| (point, backend)))
        .collect();
    SplitMix::new(seed).shuffle(&mut jobs);

    // Per backend, over the run: simulated steps and CPU seconds.
    let mut steps_total = vec![0u64; backends.len()];
    let mut cpu = vec![0f64; backends.len()];
    // Per backend, in the last pass: replicas; and unknown views.
    let mut replicas = Vec::new();
    let mut unknown_views = 0u64;
    let mut sizes = ModelSizes::default();
    for pass in 0..PASSES {
        tr.start_pass(pass);
        replicas = vec![0u64; backends.len()];
        unknown_views = 0;
        let mut steps = vec![0u64; backends.len()];
        let mut means = vec![vec![0u64; backends.len()]; POINTS.len()];
        for (op, &(point, b)) in jobs.iter().enumerate() {
            // Set-up runs `SETUP_BATCH + 1` times back to back. The first
            // refills the heap the op before left behind, so the timed ones
            // pay no fresh page faults; one sample is the time of the other
            // `SETUP_BATCH` over `SETUP_BATCH`. The op uses the last set-up.
            let mut kept = None;
            let mut setup_start = 0;
            tr.begin("setup");
            for i in 0..=SETUP_BATCH {
                if i == 1 {
                    setup_start = thread_cpu_ns();
                }
                let (family, solves) = setup(tr)?;
                tr.record("export.build", || StrategyExport::from_family(&family));
                kept = Some((family, solves));
            }
            tr.end();
            out.setup_s
                .push((thread_cpu_ns() - setup_start) as f64 * 1e-9 / SETUP_BATCH as f64);
            let (family, solves) = kept.ok_or("no set-up ran")?;
            let export = StrategyExport::from_family(&family);
            sizes = ModelSizes::of(&family);
            if tr.recording() && pass == 0 && op == 0 {
                for solve in &solves {
                    tr.record("export.table", || {
                        export.table(&solve.strategy, UnknownViewPolicy::Wait)
                    })
                    .map_err(|e| format!("strategy export: {e}"))?;
                }
            }

            let backend = backends[b];
            let settings = ConformanceSettings {
                backends: vec![backend],
                ..ConformanceSettings::default()
            };
            tr.set_op(Some(pass * jobs.len() + op));
            let op_start = thread_cpu_ns();
            tr.begin("op");
            let certified = tr.record("conformance.certify_point", || {
                certify_point(&export, &solves[point], &settings)
            });
            tr.end();
            let cpu_s = (thread_cpu_ns() - op_start) as f64 * 1e-9;

            let label = backend.label();
            let p = POINTS[point];
            let ok = match certified {
                Err(e) => {
                    out.failures.push(format!("certify p = {p} {label}: {e}"));
                    false
                }
                Ok(report) => {
                    for estimate in &report.estimates {
                        replicas[b] += estimate.replicas as u64;
                        steps[b] += (estimate.replicas * estimate.steps_per_replica) as u64;
                        means[point][b] = estimate.mean.to_bits();
                    }
                    cpu[b] += cpu_s;
                    unknown_views += report.unknown_views();
                    let conforms = report.conforms() && report.estimates.len() == 1;
                    if !conforms {
                        out.failures.push(format!(
                            "p = {p} {label}: estimate does not conform to [{}, {}]",
                            report.certified_lower, report.certified_upper
                        ));
                    }
                    conforms
                }
            };
            out.ops.push(OpSample {
                op: point * backends.len() + b,
                traced: tr.recording(),
                cpu_s,
                solve_s: cpu_s,
                hit: false,
                ok,
            });
        }
        tr.set_op(None);

        let mut digest = Fnv1a::new();
        for row in &means {
            for &bits in row {
                digest.write_u64(bits);
            }
        }
        out.count("conformance.unknown_views", unknown_views);
        out.count("conformance.estimate_digest", digest.finish());
        for (b, &backend) in backends.iter().enumerate() {
            let name = backend_name(backend);
            out.count(&format!("conformance.replicas.{name}"), replicas[b]);
            out.count(&format!("chain.steps.{name}"), steps[b]);
            steps_total[b] += steps[b];
        }
    }
    out.count("core.states", sizes.states as u64);
    out.count("core.transitions", sizes.transitions as u64);

    if tr.enabled() {
        out.core_layers(tr, sizes);
        out.layer("mdp.advance_ms", median(&tr.durations_ms("mdp.advance")));
        out.layer("export.table_ms", median(&tr.durations_ms("export.table")));
        out.layer("conformance.unknown_views", unknown_views as f64);
        for (b, &backend) in backends.iter().enumerate() {
            let name = backend_name(backend);
            out.layer(&format!("conformance.replicas.{name}"), replicas[b] as f64);
            out.layer(
                &format!("chain.steps_per_cpu_s.{name}"),
                steps_total[b] as f64 / cpu[b],
            );
        }
    }
    Ok(out)
}
