//! Criterion bench regenerating Table 1: wall-clock time of the full analysis
//! (model construction + certified analysis, the `table1` binary's
//! [`table1_row`] path) per attack configuration at γ = 0.5.
//!
//! The absolute numbers are not expected to match the paper's Storm-based
//! runtimes; the reproduced shape is the order-of-magnitude growth with the
//! attack depth `d` and the forking number `f`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selfish_mining::baselines::SingleTreeAttack;
use selfish_mining::experiments::table1_row;

fn bench_our_attack(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/our_attack");
    group.sample_size(10);
    let configs: &[(usize, usize)] = if sm_bench::expensive_enabled() {
        &[(1, 1), (2, 1), (2, 2), (3, 2)]
    } else {
        &[(1, 1), (2, 1), (2, 2)]
    };
    for &(depth, forks) in configs {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{depth}_f{forks}")),
            &(depth, forks),
            |b, &(depth, forks)| {
                b.iter(|| table1_row(0.3, 0.5, depth, forks, 4, 1e-3).unwrap().revenue);
            },
        );
    }
    group.finish();
}

fn bench_single_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/single_tree");
    group.sample_size(10);
    group.bench_function("f5_l4", |b| {
        b.iter(|| {
            SingleTreeAttack::paper_configuration(0.3, 0.5)
                .analyse()
                .unwrap()
                .relative_revenue
        });
    });
    group.finish();
}

criterion_group!(benches, bench_our_attack, bench_single_tree);
criterion_main!(benches);
