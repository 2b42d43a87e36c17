//! Determinism of the intra-solve parallel sweeps: every solver must return
//! **bit-identical** results — gains, certified bounds, strategies, bias
//! vectors and iteration counts — for any thread count. The row-block
//! parallelism only partitions Jacobi sweeps over disjoint state blocks and
//! folds the per-block statistics in block order, so nothing about the
//! arithmetic may depend on the pool shape; these tests enforce that with
//! exact `f64::to_bits` comparisons across 1/2/8 intra-solve threads over a
//! seeded `(p, γ)` grid, plus a pinned large-instance (`d = 3, f = 2`)
//! smoke test. The serial certified `d = 2, f = 2` curve is additionally
//! pinned to absolute bit patterns, so a change to the sweep schedule cannot
//! move the reference that the thread counts are compared against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfish_mining::experiments::attack_curve;
use selfish_mining::{AnalysisConfig, ParametricModel, SolverParallelism};
use sm_audit::Fnv1a;
use sm_mdp::{PositionalStrategy, RelativeValueIteration};

/// The seeded `(p, γ)` grid shared by the per-solver properties.
fn seeded_grid(points: usize) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(0x5ee9_b10c);
    (0..points)
        .map(|_| (rng.gen_range(0.05..0.45), rng.gen_range(0.0..1.0)))
        .collect()
}

/// FNV-1a digest of a strategy's choices, each absorbed as a little-endian
/// `u64`.
fn strategy_digest(strategy: &PositionalStrategy) -> u64 {
    let mut digest = Fnv1a::new();
    for &choice in strategy.choices() {
        digest.write_u64(choice as u64);
    }
    digest.finish()
}

fn assert_bits_eq(label: &str, reference: &[f64], candidate: &[f64]) {
    assert_eq!(reference.len(), candidate.len(), "{label}: length mismatch");
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: entry {i} differs ({a} vs {b})"
        );
    }
}

#[test]
fn relative_value_iteration_is_bit_identical_across_thread_counts() {
    // d = 2, f = 2 (2895 states, ~22k transitions) comfortably clears the
    // minimum block mass, so 2 and 8 threads genuinely exercise the pool.
    let family = ParametricModel::build(2, 2, 4).unwrap();
    for &(p, gamma) in &seeded_grid(3) {
        let model = family.instantiate(p, gamma).unwrap();
        let rewards = model.beta_rewards(0.35);
        let reference = RelativeValueIteration::with_epsilon(1e-6)
            .solve(model.mdp(), &rewards)
            .unwrap();
        for threads in [2usize, 8] {
            let parallel = RelativeValueIteration::with_epsilon(1e-6)
                .with_parallelism(SolverParallelism::threads(threads))
                .solve(model.mdp(), &rewards)
                .unwrap();
            let label = format!("rvi p={p} gamma={gamma} threads={threads}");
            assert_eq!(reference.gain.to_bits(), parallel.gain.to_bits(), "{label}");
            assert_eq!(
                reference.gain_lower.to_bits(),
                parallel.gain_lower.to_bits(),
                "{label}"
            );
            assert_eq!(
                reference.gain_upper.to_bits(),
                parallel.gain_upper.to_bits(),
                "{label}"
            );
            assert_eq!(reference.strategy, parallel.strategy, "{label}");
            assert_eq!(reference.iterations, parallel.iterations, "{label}");
            assert_bits_eq(&label, &reference.bias, &parallel.bias);
        }
    }
}

#[test]
fn warm_started_rvi_is_bit_identical_across_thread_counts() {
    let family = ParametricModel::build(2, 2, 4).unwrap();
    let model = family.instantiate(0.3, 0.5).unwrap();
    let rewards = model.beta_rewards(0.3);
    let cold = RelativeValueIteration::with_epsilon(1e-5)
        .solve(model.mdp(), &rewards)
        .unwrap();
    // Warm-start from the cold bias under a shifted reward, serial vs pool.
    let shifted = model.beta_rewards(0.32);
    let reference = RelativeValueIteration::with_epsilon(1e-6)
        .solve_from(model.mdp(), &shifted, &cold.bias)
        .unwrap();
    for threads in [2usize, 8] {
        let parallel = RelativeValueIteration::with_epsilon(1e-6)
            .with_parallelism(SolverParallelism::threads(threads))
            .solve_from(model.mdp(), &shifted, &cold.bias)
            .unwrap();
        assert_eq!(reference.gain.to_bits(), parallel.gain.to_bits());
        assert_eq!(reference.strategy, parallel.strategy);
        assert_eq!(reference.iterations, parallel.iterations);
        assert_bits_eq("warm rvi bias", &reference.bias, &parallel.bias);
    }
}

#[test]
fn fused_chain_gains_are_bit_identical_across_thread_counts() {
    // Evaluate a fixed strategy's revenue — the `iterative_gains` hot path —
    // on the chain induced by an actual ε-optimal strategy.
    let family = ParametricModel::build(2, 2, 4).unwrap();
    for &(p, gamma) in &seeded_grid(2) {
        let model = family.instantiate(p, gamma).unwrap();
        let rewards = model.beta_rewards(0.35);
        let strategy = RelativeValueIteration::with_epsilon(1e-5)
            .solve(model.mdp(), &rewards)
            .unwrap()
            .strategy;
        let (reference_revenue, reference_bias) = model
            .expected_relative_revenue_seeded_with(&strategy, None, SolverParallelism::serial())
            .unwrap();
        for threads in [2usize, 8] {
            let (revenue, bias) = model
                .expected_relative_revenue_seeded_with(
                    &strategy,
                    None,
                    SolverParallelism::threads(threads),
                )
                .unwrap();
            let label = format!("gains p={p} gamma={gamma} threads={threads}");
            assert_eq!(
                reference_revenue.to_bits(),
                revenue.to_bits(),
                "{label}: revenue {reference_revenue} vs {revenue}"
            );
            assert_eq!(reference_bias.len(), bias.len(), "{label}");
            for (r, (a, b)) in reference_bias.iter().zip(&bias).enumerate() {
                assert_bits_eq(&format!("{label} reward {r}"), a, b);
            }
        }
    }
}

#[test]
fn certified_attack_curves_are_bit_identical_across_thread_counts() {
    // End to end through the Dinkelbach analysis with warm starts along the
    // curve: certificates, strategies and revenues must not see the pool.
    let family = ParametricModel::build(2, 2, 4).unwrap();
    let ps = [0.15, 0.25, 0.35];
    let reference = attack_curve(&family, 0.5, &ps, AnalysisConfig::with_epsilon(1e-3)).unwrap();
    // Absolute pins of the serial curve: `to_bits` of β_low, β_up and the
    // strategy's revenue, and the strategy digest, per point.
    let pins: [(u64, u64, u64, u64); 3] = [
        (
            0x3fc7_401d_280c_5c73,
            0x3fc7_60e1_c3b2_3fc7,
            0x3fc7_401d_280c_5c73,
            0xb974_c2c4_23fb_dd69,
        ),
        (
            0x3fd6_03a9_eb70_dd8f,
            0x3fd6_140c_3943_cf39,
            0x3fd6_03a9_eb70_dd8f,
            0xcad9_5db7_05f9_ed6a,
        ),
        (
            0x3fe1_2628_3d9c_f788,
            0x3fe1_2e59_6486_705d,
            0x3fe1_2628_3d9c_f788,
            0x9431_07bb_39c8_47e1,
        ),
    ];
    assert_eq!(reference.len(), pins.len());
    for (solve, &(low, up, revenue, digest)) in reference.iter().zip(&pins) {
        let context = format!("p = {}", solve.p);
        assert_eq!(solve.beta_low.to_bits(), low, "{context}: beta_low");
        assert_eq!(solve.beta_up.to_bits(), up, "{context}: beta_up");
        assert_eq!(
            solve.strategy_revenue.to_bits(),
            revenue,
            "{context}: strategy_revenue"
        );
        assert_eq!(
            strategy_digest(&solve.strategy),
            digest,
            "{context}: strategy"
        );
    }
    for threads in [2usize, 8] {
        let parallel = attack_curve(
            &family,
            0.5,
            &ps,
            AnalysisConfig::with_epsilon(1e-3)
                .with_parallelism(SolverParallelism::threads(threads)),
        )
        .unwrap();
        // CertifiedSolve's PartialEq compares every f64 exactly.
        assert_eq!(reference, parallel, "threads = {threads}");
    }
}

#[test]
fn large_instance_smoke_d3_f2_is_pinned_and_deterministic() {
    // The `d = 3, f = 2` arena is the instance class this layer exists for:
    // two orders of magnitude beyond the default grid. Pin its size so a
    // construction change cannot silently alter the workload, then check a
    // full sweep-based solve bit for bit across pool shapes.
    let family = ParametricModel::build(3, 2, 4).unwrap();
    assert_eq!(family.num_states(), 133_299, "d=3,f=2,l=4 state count");
    let model = family.instantiate(0.3, 0.5).unwrap();
    assert_eq!(model.num_states(), 133_299);
    let rewards = model.beta_rewards(0.45);
    // The production solver at the analysis' default precision: ~130 full
    // and evaluation sweeps over 1.25M transitions hammer the pool.
    let solver = RelativeValueIteration::with_epsilon(1e-3);
    let reference = solver.solve(model.mdp(), &rewards).unwrap();
    let parallel = solver
        .with_parallelism(SolverParallelism::threads(4))
        .solve(model.mdp(), &rewards)
        .unwrap();
    assert_eq!(
        reference.gain_lower.to_bits(),
        parallel.gain_lower.to_bits()
    );
    assert_eq!(
        reference.gain_upper.to_bits(),
        parallel.gain_upper.to_bits()
    );
    assert_eq!(reference.iterations, parallel.iterations);
    assert_eq!(reference.strategy, parallel.strategy);
    assert_bits_eq("d3f2 bias", &reference.bias, &parallel.bias);
}
