//! `service-d2f2`: a closed loop with one client against the query service.
//!
//! Set-up opens `Service::new` with a one-thread budget and primes each of
//! the 3 γ × 2 backend curves with one query at p = 0.3, which builds the
//! d2f2 arena once and advances the 7 canonical anchors of every curve. The
//! op stream is 300 queries (p on the 10⁻³ grid in [0, 0.3]):
//! - 252 distinct off-lattice points, each answered by a warm probe from
//!   its anchor;
//! - 12 distinct anchor points, answered from the anchor chain;
//! - 36 repeats of earlier queries, answered from the memo.
//!
//! The distinct points are a fixed stride through the grid; the seed picks
//! their order and which queries repeat. A probe's answer and cost depend
//! only on its point, so the multiset of op costs, the tier mix and every
//! `ServiceStats` counter are the same for every seed. A run makes `PASSES`
//! passes of set-up plus the same stream. Every repeated query must answer
//! bit-identically to its first answer.

use crate::measure::{median, thread_cpu_ns, SplitMix, Tracer};
use crate::{timed_setup, ModelSizes, OpSample, RunResult};
use selfish_mining::{AttackScenario, ConsensusBackend, ParametricModel};
use sm_service::{Query, Service, ServiceConfig, ServiceStats};
use std::collections::BTreeMap;

const GAMMAS: [f64; 3] = [0.25, 0.5, 0.75];
const BACKENDS: [ConsensusBackend; 2] = [ConsensusBackend::Bernoulli, ConsensusBackend::PowLottery];
const EPSILON: f64 = 1e-3;
/// p grid: k / 1000 for k in 0..=300; anchors (Δ = 0.05) are multiples of 50.
const GRID: u64 = 300;
const ANCHOR_EVERY: u64 = 50;
/// Every 7th off-lattice point of the 6 curves (252 probes) and every 3rd
/// anchor point not primed in set-up (12 anchor queries).
const PROBE_STRIDE: usize = 7;
const ANCHOR_STRIDE: usize = 3;
const REPEATS: usize = 36;
/// Each pass opens a fresh service, so every pass repeats the same work.
const PASSES: usize = 8;

/// One query of the stream: curve index (γ, backend) and p in thousandths.
type Key = (usize, u64);

fn query(key: Key) -> Query {
    let (curve, k) = key;
    Query {
        scenario: AttackScenario::Optimal,
        backend: BACKENDS[curve % BACKENDS.len()],
        depth: 2,
        forks_per_block: 2,
        max_fork_length: 4,
        p: k as f64 / 1000.0,
        gamma: GAMMAS[curve / BACKENDS.len()],
        epsilon: EPSILON,
    }
}

/// The seeded op stream: fixed distinct points in seeded order, plus seeded
/// repeats.
fn stream(seed: u64) -> Vec<Key> {
    let mut rng = SplitMix::new(seed);
    let curves = GAMMAS.len() * BACKENDS.len();
    let all = (0..curves).flat_map(|curve| (0..GRID).map(move |k| (curve, k)));
    let (anchors, off_lattice): (Vec<Key>, Vec<Key>) =
        all.partition(|&(_, k)| k % ANCHOR_EVERY == 0);
    let mut keys: Vec<Key> = off_lattice
        .into_iter()
        .step_by(PROBE_STRIDE)
        .chain(anchors.into_iter().step_by(ANCHOR_STRIDE))
        .collect();
    rng.shuffle(&mut keys);
    // Each repeat copies an earlier query to a later position; insertion
    // keeps every copy after its original.
    for _ in 0..REPEATS {
        let position = 1 + rng.below(keys.len());
        let original = keys[rng.below(position)];
        keys.insert(position, original);
    }
    keys
}

fn bits(interval: &sm_service::CertifiedInterval) -> [u64; 3] {
    [
        interval.beta_low.to_bits(),
        interval.beta_up.to_bits(),
        interval.strategy_revenue.to_bits(),
    ]
}

/// Opens the service and primes every curve at p = 0.3. Returns the service
/// and the priming answers, keyed like the stream.
fn setup(tr: &mut Tracer) -> Result<(Service, BTreeMap<Key, [u64; 3]>), String> {
    let config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let service = Service::new(config).map_err(|e| format!("service: {e}"))?;
    let mut first = BTreeMap::new();
    for curve in 0..GAMMAS.len() * BACKENDS.len() {
        let key = (curve, GRID);
        let answer = tr
            .record("service.prime", || service.answer(&query(key)))
            .map_err(|e| format!("priming {:?}: {e}", query(key)))?;
        first.insert(key, bits(&answer.interval));
    }
    Ok((service, first))
}

pub fn run(seed: u64, tr: &mut Tracer) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let keys = stream(seed);
    let mut solve_ms = Vec::new();
    let mut last = None;
    for pass in 0..PASSES {
        drop(last.take());
        tr.start_pass(pass);
        let ((service, mut first), setup_s) = timed_setup(tr, setup)?;
        out.setup_s.push(setup_s);
        let (mut pass_hits, mut pass_solves) = (0u64, 0u64);
        for (op, &key) in keys.iter().enumerate() {
            let q = query(key);
            tr.set_op(Some(pass * keys.len() + op));
            let op_start = thread_cpu_ns();
            tr.begin("op");
            let answered = tr.record("service.answer", || service.answer(&q));
            tr.end();
            let cpu_s = (thread_cpu_ns() - op_start) as f64 * 1e-9;

            let (ok, hit) = match answered {
                Err(e) => {
                    out.failures.push(format!("query {q:?}: {e}"));
                    (false, false)
                }
                Ok(answer) => {
                    let interval = &answer.interval;
                    let mut ok = interval.beta_up - interval.beta_low <= EPSILON + 1e-12
                        && interval.beta_low <= interval.strategy_revenue
                        && interval.strategy_revenue <= interval.beta_up;
                    let on_lattice = key.1 % ANCHOR_EVERY == 0;
                    match first.get(&key) {
                        Some(expected) => ok &= answer.cached && *expected == bits(interval),
                        None => {
                            ok &= answer.cached == on_lattice;
                            first.insert(key, bits(interval));
                        }
                    }
                    if !ok {
                        out.failures
                            .push(format!("query {q:?}: wrong answer {answer:?}"));
                    }
                    (ok, answer.cached)
                }
            };
            if hit {
                pass_hits += 1;
            } else {
                pass_solves += 1;
                solve_ms.push(cpu_s * 1e3);
            }
            out.ops.push(OpSample {
                op,
                traced: tr.recording(),
                cpu_s,
                solve_s: cpu_s,
                hit,
                ok,
            });
        }
        tr.set_op(None);

        out.count("ops.hit", pass_hits);
        out.count("ops.solve", pass_solves);
        out.count(
            "service.resident_arena_bytes",
            service.resident_arena_bytes() as u64,
        );
        for (name, value) in stat_fields(&service.stats()) {
            out.count(&format!("service.{name}"), value);
        }
        last = Some(service);
    }
    let service = last.ok_or("no pass ran")?;

    if tr.enabled() {
        // The service owns its arena; the core layer is measured on a
        // standalone build of the same d2f2 topology, and `mdp.*` here is
        // the service's answer time for solve ops (lookup, validation and
        // locking included) less that build's `instantiate_into`.
        tr.start_pass(PASSES);
        let family = tr
            .record("core.build", || ParametricModel::build(2, 2, 4))
            .map_err(|e| format!("d2f2 build: {e}"))?;
        let mut model = family
            .instantiate(0.0, 0.5)
            .map_err(|e| format!("d2f2 instantiate: {e}"))?;
        for k in 1..=9 {
            tr.record("core.instantiate", || {
                family.instantiate_into(&mut model, k as f64 * 0.03, 0.5)
            })
            .map_err(|e| format!("d2f2 instantiate: {e}"))?;
        }
        let stats = service.stats();
        let instantiate_ms = median(&tr.durations_ms("core.instantiate"));
        let advance_ms = median(&solve_ms);
        out.core_layers(tr, ModelSizes::of(&family));
        out.layer("core.instantiate_ms", instantiate_ms);
        out.layer("mdp.advance_ms", advance_ms);
        out.layer("mdp.solve_ms", advance_ms - instantiate_ms);
        out.layer(
            "service.solves_per_query",
            stats.solves as f64 / stats.queries as f64,
        );
        out.layer(
            "service.hit_ratio",
            stats.cache_hits as f64 / stats.queries as f64,
        );
        out.layer(
            "service.resident_arena_bytes",
            service.resident_arena_bytes() as f64,
        );
        for (name, value) in stat_fields(&stats) {
            out.layer(&format!("service.{name}"), value as f64);
        }
    }
    Ok(out)
}

/// Every `ServiceStats` counter, by field name.
fn stat_fields(stats: &ServiceStats) -> [(&'static str, u64); 11] {
    [
        ("queries", stats.queries),
        ("cache_hits", stats.cache_hits),
        ("coalesced", stats.coalesced),
        ("solves", stats.solves),
        ("anchor_advances", stats.anchor_advances),
        ("probes", stats.probes),
        ("arena_builds", stats.arena_builds),
        ("arena_hits", stats.arena_hits),
        ("curve_evictions", stats.curve_evictions),
        ("arena_evictions", stats.arena_evictions),
        ("memo_evictions", stats.memo_evictions),
    ]
}
