//! Integration tests asserting the *shape* of the paper's experimental
//! findings (Section 4 / Figure 2), computed end-to-end through the public
//! API: model construction, the certified analysis, and both baselines.

use selfish_mining::baselines::{honest_relative_revenue, SingleTreeAttack};
use selfish_mining::experiments::{coarse_p_grid, CurveTracker};
use selfish_mining::{AnalysisConfig, ParametricModel};
use selfish_mining_repro::audit::Fnv1a;
use selfish_mining_repro::grid::SweepConfig;

fn attack_revenue(p: f64, gamma: f64, depth: usize, forks: usize) -> f64 {
    let family = ParametricModel::build(depth, forks, 4).unwrap();
    CurveTracker::new(&family, gamma, true, AnalysisConfig::with_epsilon(1e-3))
        .advance(p)
        .unwrap()
        .strategy_revenue
}

/// Key takeaway 1 of the paper: the attack achieves at least the honest share
/// and clearly exceeds it for d >= 2 at p = 0.3.
#[test]
fn attack_dominates_honest_baseline() {
    let p = 0.3;
    for gamma in [0.0, 0.5, 1.0] {
        let honest = honest_relative_revenue(p).unwrap();
        let ours = attack_revenue(p, gamma, 2, 1);
        assert!(
            ours >= honest - 1e-3,
            "gamma={gamma}: attack {ours} below honest {honest}"
        );
    }
    // For gamma = 0.5 and d = 2 the advantage is strict and substantial.
    assert!(attack_revenue(0.3, 0.5, 2, 1) > 0.32);
}

/// The attack revenue grows with the attack depth / forking number:
/// (2,1) >= (1,1) and (2,2) >= (2,1).
#[test]
fn attack_revenue_grows_with_depth_and_forks() {
    let p = 0.3;
    let gamma = 0.5;
    let r11 = attack_revenue(p, gamma, 1, 1);
    let r21 = attack_revenue(p, gamma, 2, 1);
    let r22 = attack_revenue(p, gamma, 2, 2);
    assert!(r21 >= r11 - 2e-3, "(2,1) {r21} should dominate (1,1) {r11}");
    assert!(r22 >= r21 - 2e-3, "(2,2) {r22} should dominate (2,1) {r21}");
    // And the growth from (1,1) to (2,2) is substantial at p = 0.3.
    assert!(r22 > r11 + 0.02, "expected a clear gap, got {r11} vs {r22}");
}

/// Figure 2's panels are ordered by gamma: larger switching probability means
/// larger revenue.
#[test]
fn attack_revenue_grows_with_gamma() {
    let p = 0.25;
    let r0 = attack_revenue(p, 0.0, 2, 1);
    let r50 = attack_revenue(p, 0.5, 2, 1);
    let r100 = attack_revenue(p, 1.0, 2, 1);
    assert!(
        r0 <= r50 + 2e-3,
        "gamma 0 ({r0}) should not beat gamma 0.5 ({r50})"
    );
    assert!(
        r50 <= r100 + 2e-3,
        "gamma 0.5 ({r50}) should not beat gamma 1 ({r100})"
    );
}

/// Already at d = 2, f = 1 the attack achieves a higher ERRev than the
/// single-tree baseline (the paper's justification for growing disjoint forks
/// instead of trees).
#[test]
fn two_depth_attack_beats_single_tree_baseline() {
    let p = 0.3;
    for gamma in [0.25, 0.5, 0.75] {
        let ours = attack_revenue(p, gamma, 2, 1);
        let tree = SingleTreeAttack::paper_configuration(p, gamma)
            .analyse()
            .unwrap()
            .relative_revenue;
        assert!(
            ours >= tree - 2e-3,
            "gamma={gamma}: our attack {ours} should be at least the single-tree baseline {tree}"
        );
    }
}

/// The d = f = 1 configuration only pays off for large switching
/// probabilities and large p (the paper observes the threshold around
/// gamma > 0.5, p > 0.25); at gamma = 0 it coincides with honest mining.
#[test]
fn minimal_configuration_needs_high_gamma_to_pay_off() {
    let honest = honest_relative_revenue(0.3).unwrap();
    let at_gamma_zero = attack_revenue(0.3, 0.0, 1, 1);
    assert!(
        (at_gamma_zero - honest).abs() < 5e-3,
        "at gamma=0 the d=f=1 attack ({at_gamma_zero}) should match honest mining ({honest})"
    );
    let at_gamma_one = attack_revenue(0.3, 1.0, 1, 1);
    assert!(
        at_gamma_one > honest + 5e-3,
        "at gamma=1, p=0.3 the d=f=1 attack ({at_gamma_one}) should beat honest mining ({honest})"
    );
}

/// Revenue is monotone in the adversarial resource share.
#[test]
fn attack_revenue_is_monotone_in_p() {
    let gamma = 0.5;
    let mut previous = 0.0;
    for p in [0.0, 0.1, 0.2, 0.3] {
        let revenue = attack_revenue(p, gamma, 2, 1);
        assert!(
            revenue >= previous - 2e-3,
            "revenue should not decrease with p (p={p}: {revenue} < {previous})"
        );
        previous = revenue;
    }
}

/// Golden shape of the batched `figure2_panels` driver: each panel's curves
/// are monotone in `p`, the `(d, f)` refinements are ordered panel-wide, the
/// honest column is exactly `p`, and the γ panels are ordered against each
/// other — the qualitative content of the paper's Figure 2, asserted on the
/// full sweep output rather than on hand-picked points.
#[test]
fn figure2_panels_have_golden_shape() {
    let epsilon = 5e-3;
    let tolerance = 2.0 * epsilon;
    let gammas = [0.0, 0.5];
    let panels = sm_bench::figure2_panels(&gammas, epsilon).unwrap();
    assert_eq!(panels.len(), gammas.len());
    let configs = sm_bench::attack_grid().len();
    for (panel, &gamma) in panels.iter().zip(&gammas) {
        assert_eq!(panel.gamma, gamma);
        assert!(!panel.points.is_empty());
        // Rendered text: one header plus one row per p, all columns present.
        assert_eq!(panel.rendered.lines().count(), panel.points.len() + 1);
        assert!(panel.rendered.contains("single-tree"));
        assert!(panel.rendered.contains("d=2,f=2"));
        for (i, point) in panel.points.iter().enumerate() {
            assert_eq!(point.gamma, gamma);
            assert_eq!(point.attack_revenue.len(), configs);
            // The honest baseline is exactly p.
            assert!((point.honest_revenue - point.p).abs() < 1e-12);
            assert!((0.0..1.0).contains(&point.single_tree_revenue));
            for (config, &revenue) in point.attack_revenue.iter().enumerate() {
                // Every attack weakly dominates honest mining.
                assert!(
                    revenue >= point.honest_revenue - tolerance,
                    "gamma={gamma} p={} config {config}: {revenue} below honest {}",
                    point.p,
                    point.honest_revenue
                );
                // Ordering across (d, f) refinements within the point.
                if config > 0 {
                    assert!(
                        revenue >= point.attack_revenue[config - 1] - tolerance,
                        "gamma={gamma} p={}: config {config} ({revenue}) below config {}",
                        point.p,
                        config - 1
                    );
                }
                // Monotonicity in p along the curve.
                if i > 0 {
                    let previous = panel.points[i - 1].attack_revenue[config];
                    assert!(
                        revenue >= previous - tolerance,
                        "gamma={gamma} config {config}: revenue drops from {previous} to {revenue} at p={}",
                        point.p
                    );
                }
            }
        }
    }
    // Panels are ordered by γ: larger switching probability cannot hurt.
    for (low, high) in panels[0].points.iter().zip(&panels[1].points) {
        assert_eq!(low.p, high.p);
        for (a, b) in low.attack_revenue.iter().zip(&high.attack_revenue) {
            assert!(
                b >= &(a - tolerance),
                "p={}: gamma=0.5 ({b}) below gamma=0 ({a})",
                low.p
            );
        }
    }
}

/// Pins every bit the Figure 2 sweep produces on a small grid: an FNV-1a
/// digest over the `to_bits` of every field of every [`Figure2Point`]
/// (`p`, `γ`, each attack revenue, the honest and single-tree baselines),
/// in output order. The shape tests above only check ranges and orderings.
///
/// [`Figure2Point`]: selfish_mining::experiments::Figure2Point
#[test]
fn figure2_sweep_is_pinned_bit_for_bit() {
    let points = SweepConfig {
        attack_grid: vec![(1, 1), (2, 1)],
        epsilon: 1e-3,
        workers: 1,
        ..SweepConfig::default()
    }
    .run(&[0.5], &coarse_p_grid())
    .unwrap();
    assert_eq!(points.len(), coarse_p_grid().len());
    let mut hasher = Fnv1a::new();
    for point in &points {
        hasher.write_u64(point.p.to_bits());
        hasher.write_u64(point.gamma.to_bits());
        for revenue in &point.attack_revenue {
            hasher.write_u64(revenue.to_bits());
        }
        hasher.write_u64(point.honest_revenue.to_bits());
        hasher.write_u64(point.single_tree_revenue.to_bits());
    }
    assert_eq!(
        hasher.finish(),
        0x0b75_a275_5ddf_435a,
        "{:#018x}",
        hasher.finish()
    );
}

/// Chain quality (1 - ERRev) degrades below the fair value 1 - p once the
/// adversary uses the attack with d >= 2 — the security message of the paper.
#[test]
fn chain_quality_degrades_under_attack() {
    let p = 0.3;
    let gamma = 0.5;
    let revenue = attack_revenue(p, gamma, 2, 2);
    let chain_quality = 1.0 - revenue;
    assert!(
        chain_quality < 1.0 - p - 0.01,
        "chain quality {chain_quality} should fall below the fair value {}",
        1.0 - p
    );
}
