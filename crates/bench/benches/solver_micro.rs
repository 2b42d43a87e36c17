//! Micro-benchmarks of the production pipeline, one group per stage a grid
//! point travels through: model construction, the relative-value-iteration
//! solve, Dinkelbach's search, the Figure 2 sweep engine, the certificate
//! audit, the query service, the consensus backends' arrival draws and the
//! chain simulator. Every benchmark times code the pipeline runs; the
//! `bench_check` gate compares their medians with `bench/baseline.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selfish_mining::experiments::{coarse_p_grid, CurveTracker, PAPER_GAMMA_GRID};
use selfish_mining::{
    AnalysisConfig, AttackParams, ParametricModel, SelfishMiningModel, SolverParallelism,
};
use sm_grid::SweepConfig;
use sm_mdp::RelativeValueIteration;

/// Builds the model at `params`: the parametric BFS over the `(d, f, l)`
/// topology plus one instantiation at `(p, γ)`.
fn build(params: &AttackParams) -> SelfishMiningModel {
    ParametricModel::build(params.depth, params.forks_per_block, params.max_fork_length)
        .unwrap()
        .instantiate(params.p, params.gamma)
        .unwrap()
}

/// Model construction plus one relative-value-iteration solve of
/// `r_β = r_A − β(r_A + r_H)`: the parametric build streams the flat CSR
/// arena, one instantiation fills it, and the solver sweeps it.
fn bench_construction_plus_vi(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr/build_plus_vi");
    group.sample_size(10);
    let beta = 0.35;
    for (depth, forks) in [(2usize, 1usize), (2, 2)] {
        let params = AttackParams::new(0.3, 0.5, depth, forks, 4).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("csr_stream_d{depth}_f{forks}")),
            &params,
            |b, params| {
                b.iter(|| {
                    let model = build(params);
                    let rewards = model.beta_rewards(beta);
                    RelativeValueIteration::with_epsilon(1e-6)
                        .solve(model.mdp(), &rewards)
                        .unwrap()
                        .gain
                });
            },
        );
    }
    group.finish();
}

fn bench_mean_payoff_methods(c: &mut Criterion) {
    let model = build(&AttackParams::new(0.3, 0.5, 2, 1, 4).unwrap());
    let rewards = model.beta_rewards(0.35);
    let mut group = c.benchmark_group("solver/mean_payoff_d2_f1");
    let mdp = model.mdp();
    group.bench_function("value_iteration", |b| {
        let solver = RelativeValueIteration::with_epsilon(1e-6);
        b.iter(|| solver.solve(mdp, &rewards).unwrap().gain);
    });
    group.finish();
}

/// A cold tracker (`warm_start = false`) over a pre-instantiated arena: every
/// `advance` refills the arena in place and runs one full cold Dinkelbach
/// analysis.
fn cold_tracker(family: &ParametricModel, config: AnalysisConfig) -> CurveTracker<'_> {
    let arena = family.instantiate(0.3, 0.5).unwrap();
    CurveTracker::new(family, 0.5, false, config).with_arena(Some(arena))
}

fn bench_dinkelbach(c: &mut Criterion) {
    let family = ParametricModel::build(2, 1, 4).unwrap();
    let mut tracker = cold_tracker(&family, AnalysisConfig::with_epsilon(1e-3));
    let mut group = c.benchmark_group("solver/search_d2_f1");
    group.sample_size(10);
    group.bench_function("dinkelbach", |b| {
        b.iter(|| tracker.advance(0.3).unwrap().strategy_revenue);
    });
    group.finish();
}

/// Thread-scaling of the intra-solve parallel Bellman/chain sweeps on a
/// *single* instance — the acceptance workload of the row-block parallelism
/// layer: one full warm-free Dinkelbach analysis (several relative-value-
/// iteration solves plus fused revenue evaluations) at `p = 0.3, γ = 0.5`,
/// solved with 1/2/4/8 intra-solve threads. Results are bit-identical across
/// the row; only the wall-clock time may differ. The `d = 3, f = 2` row
/// (tens of thousands of states) is gated behind `SM_BENCH_EXPENSIVE`; the
/// numbers feed the "Intra-solve scaling" table in `EXPERIMENTS.md`.
fn bench_intra_parallel_scaling(c: &mut Criterion) {
    let mut configs: Vec<(usize, usize)> = vec![(2, 2)];
    if sm_bench::expensive_enabled() {
        configs.push((3, 2));
    }
    for (depth, forks) in configs {
        let family = ParametricModel::build(depth, forks, 4).unwrap();
        let mut group = c.benchmark_group(format!("solver/intra_parallel_d{depth}_f{forks}"));
        group.sample_size(5);
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new("threads", threads),
                &threads,
                |b, &threads| {
                    let mut tracker = cold_tracker(
                        &family,
                        AnalysisConfig::with_epsilon(1e-3)
                            .with_parallelism(SolverParallelism::threads(threads)),
                    );
                    b.iter(|| tracker.advance(0.3).unwrap().strategy_revenue);
                },
            );
        }
        group.finish();
    }
}

/// Thread-scaling of the parallel Jacobi Bellman sweeps on the `d = 4,
/// f = 3` arena — the scale target of the compact-arena work: one
/// relative-value-iteration solve at fixed `β` per thread count. Gated
/// entirely behind `SM_BENCH_EXPENSIVE`; runs in the nightly CI job.
fn bench_d4f3_thread_scaling(c: &mut Criterion) {
    if !sm_bench::expensive_enabled() {
        return;
    }
    // Level budget l = 2: the only budget whose reachable set fits the
    // solver's default 12M-state limit (~3.0M states / 22.9M transitions).
    let family = ParametricModel::build(4, 3, 2).unwrap();
    let model = family.instantiate(0.3, 0.5).unwrap();
    let rewards = model.beta_rewards(0.35);
    let mut group = c.benchmark_group("solver/intra_parallel_d4_f3");
    group.sample_size(2);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let solver = RelativeValueIteration::with_epsilon(1e-4)
                    .with_parallelism(SolverParallelism::threads(threads));
                b.iter(|| solver.solve(model.mdp(), &rewards).unwrap().gain);
            },
        );
    }
    group.finish();
}

fn bench_model_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/model_build");
    for (depth, forks) in [(2usize, 1usize), (2, 2)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{depth}_f{forks}")),
            &(depth, forks),
            |b, &(depth, forks)| {
                b.iter(|| {
                    let params = AttackParams::new(0.3, 0.5, depth, forks, 4).unwrap();
                    build(&params).num_states()
                });
            },
        );
    }
    group.finish();
}

/// The full Figure-2 coarse sweep (`coarse_p_grid` × `PAPER_GAMMA_GRID` ×
/// the default attack grid, single-tree baseline included) through the
/// sweep engine (`sm_grid::SweepConfig`): one parametric arena per `(d, f)`
/// shared across the grid, in-place `(p, γ)` re-instantiation per point,
/// and warm-started solves along each `p` curve, fanned out over the worker
/// pool.
fn bench_figure2_coarse_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep/figure2_coarse");
    group.sample_size(2);
    let attack_grid = [(1usize, 1usize), (2, 1), (2, 2)];
    let epsilon = 1e-3;
    let ps = coarse_p_grid();

    group.bench_function("parametric_warm_engine", |b| {
        let config = SweepConfig {
            attack_grid: attack_grid.to_vec(),
            epsilon,
            ..SweepConfig::default()
        };
        b.iter(|| {
            config
                .run(&PAPER_GAMMA_GRID, &ps)
                .unwrap()
                .iter()
                .map(|point| point.attack_revenue.iter().sum::<f64>() + point.single_tree_revenue)
                .sum::<f64>()
        });
    });
    group.finish();
}

/// Certificate-audit throughput: one full re-validation (fingerprint, shape
/// obligations, three Jacobi residual passes) of a certified solve on the
/// pinned topologies. The audit must stay a single O(transitions) pass per
/// sweep — a regression here means the checker grew solver-shaped work. The
/// `d = 3, f = 2` row is gated behind `SM_BENCH_EXPENSIVE` like the other
/// large-arena groups; its setup includes one certified solve.
fn bench_certificate_audit(c: &mut Criterion) {
    use sm_audit::{audit_certificate, AuditConfig, CertificateArtifact};

    let mut configs: Vec<(usize, usize)> = vec![(2, 2)];
    if sm_bench::expensive_enabled() {
        configs.push((3, 2));
    }
    for (depth, forks) in configs {
        let family = ParametricModel::build(depth, forks, 4).unwrap();
        let solves = selfish_mining::experiments::attack_curve(
            &family,
            0.5,
            &[0.3],
            AnalysisConfig::with_epsilon(1e-3),
        )
        .unwrap();
        let model = family.instantiate(0.3, 0.5).unwrap();
        let artifact = CertificateArtifact::from_certified(&solves[0], &model).unwrap();
        let config = AuditConfig::default();
        let mut group = c.benchmark_group("audit");
        group.sample_size(10);
        group.bench_function(format!("certificate_d{depth}f{forks}"), |b| {
            b.iter(|| audit_certificate(&artifact, &model, &config).passed());
        });
        group.finish();
    }
}

/// Warm-vs-cold latency of the certified-analysis query service on its
/// acceptance workload (`d = 2, f = 2`, `ε = 10⁻³`, `p` off the anchor
/// lattice). The cold arm stands up a fresh service per iteration, so it
/// pays the arena build, the whole anchor chain up to `p`'s cell and the
/// final probe; the warm arm asks one long-lived service a *distinct,
/// never-repeated* off-lattice `p` inside an already-advanced cell each
/// iteration, so the timed work is exactly one warm-started probe — no memo
/// hits, no chain advances, no arena builds. Both arms return bit-identical
/// intervals for equal queries (the determinism suite in `tests/service.rs`
/// checks that); this group gates only the speedup, which must stay ≥ 5×.
fn bench_service_warm_vs_cold(c: &mut Criterion) {
    use sm_service::{Query, Service, ServiceConfig};
    use std::cell::Cell;

    let query = |p: f64| Query {
        depth: 2,
        forks_per_block: 2,
        p,
        ..Query::default()
    };
    let mut group = c.benchmark_group("service/query_warm_vs_cold");
    group.sample_size(10);
    group.bench_function("cold_first_query_d2_f2", |b| {
        b.iter(|| {
            let service = Service::new(ServiceConfig::default()).unwrap();
            service.answer(&query(0.325)).unwrap().interval.beta_low
        });
    });
    group.bench_function("warm_probe_d2_f2", |b| {
        let service = Service::new(ServiceConfig::default()).unwrap();
        service.answer(&query(0.325)).unwrap();
        let step = Cell::new(0u64);
        b.iter(|| {
            let offset = step.get();
            step.set(offset + 1);
            let p = 0.300_001 + offset as f64 * 1e-6;
            service.answer(&query(p)).unwrap().interval.beta_low
        });
    });
    group.finish();
}

/// Per-backend arrival-draw throughput: 10 000 `next_block` draws at
/// `p = 0.3, σ = 3` through each consensus backend's `ArrivalSource`. The
/// Bernoulli source is one RNG draw per step and anchors the group; the
/// proof-backed sources pay their real proof mechanisms (stake-table
/// lottery, plot race, space-time prove + VDF, VDF beacon), so this gates
/// the conformance estimator's per-step cost under `--backends all` — a
/// regression here multiplies straight into every multi-backend
/// certification run.
fn bench_backend_draw(c: &mut Criterion) {
    use rand::{rngs::StdRng, SeedableRng};
    use selfish_mining::ConsensusBackend;

    let mut group = c.benchmark_group("arrivals/backend_draw");
    group.sample_size(10);
    for backend in ConsensusBackend::default_family() {
        group.bench_function(format!("{backend}_10k_draws"), |b| {
            b.iter(|| {
                let mut source = backend.source(0.3, 0xA11CE).unwrap();
                let mut rng = StdRng::seed_from_u64(0xFACADE);
                let mut adversary_wins = 0usize;
                for _ in 0..10_000 {
                    if let sm_chain::ArrivalEvent::Adversary { .. } = source.next_block(&mut rng, 3)
                    {
                        adversary_wins += 1;
                    }
                }
                adversary_wins
            });
        });
    }
    group.finish();
}

/// One 60 000-step simulator replica of the exported ε-optimal
/// (d = 2, f = 1) strategy per consensus backend — the unit of work the
/// conformance witness repeats. Unlike `arrivals/backend_draw`, which times
/// the arrival sources alone, this covers the simulator's per-step
/// bookkeeping too: mining positions, fork extension, the strategy view and
/// its table lookup, releases and window pruning.
fn bench_chain_replica(c: &mut Criterion) {
    use selfish_mining::{ConsensusBackend, StrategyExport};
    use sm_chain::{SimulationConfig, Simulator, UnknownViewPolicy};

    let family = ParametricModel::build(2, 1, 4).unwrap();
    let mut tracker = CurveTracker::new(&family, 0.5, true, AnalysisConfig::with_epsilon(1e-3));
    let solved = tracker.advance(0.3).unwrap();
    let model = tracker.into_arena().unwrap();
    let table = StrategyExport::new(&model)
        .table(&solved.strategy, UnknownViewPolicy::Wait)
        .unwrap();
    let simulator = Simulator::new(SimulationConfig {
        p: 0.3,
        gamma: 0.5,
        depth: 2,
        forks_per_block: 1,
        max_fork_length: 4,
        steps: 60_000,
        seed: 0x5EED,
        ..SimulationConfig::default()
    });
    let mut group = c.benchmark_group("chain/replica");
    group.sample_size(10);
    for backend in ConsensusBackend::default_family() {
        group.bench_function(format!("{backend}_d2f1_60k_steps"), |b| {
            b.iter(|| {
                let mut strategy = table.clone();
                let mut source = backend.source(0.3, 0xA11CE).unwrap();
                simulator
                    .run_with_source(&mut strategy, source.as_mut())
                    .adversary_blocks
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_backend_draw,
    bench_chain_replica,
    bench_mean_payoff_methods,
    bench_dinkelbach,
    bench_model_construction,
    bench_construction_plus_vi,
    bench_intra_parallel_scaling,
    bench_d4f3_thread_scaling,
    bench_figure2_coarse_sweep,
    bench_certificate_audit,
    bench_service_warm_vs_cold
);
criterion_main!(benches);
