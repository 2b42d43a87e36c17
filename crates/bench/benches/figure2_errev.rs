//! Criterion bench regenerating (a slice of) Figure 2: the cost of computing
//! one ERRev curve point per switching probability γ, at the paper's largest
//! adversarial resource p = 0.3.
//!
//! The measured quantity is the full pipeline behind one plotted point: model
//! construction, the Dinkelbach analysis for our attack, and
//! both baselines, run by the sweep engine on one thread. Use
//! `cargo run -p sm-bench --bin figure2` to print the actual curves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sm_grid::SweepConfig;

fn bench_figure2_points(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure2/point_p0.3");
    group.sample_size(10);
    let sweep = SweepConfig {
        attack_grid: if sm_bench::expensive_enabled() {
            vec![(1, 1), (2, 1), (2, 2), (3, 2)]
        } else {
            vec![(1, 1), (2, 1)]
        },
        epsilon: 1e-3,
        workers: 1,
        ..SweepConfig::default()
    };
    for gamma in sm_bench::gamma_grid() {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("gamma{gamma}")),
            &gamma,
            |b, &gamma| {
                b.iter(|| sweep.run(&[gamma], &[0.3]).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_figure2_points);
criterion_main!(benches);
