//! Conformance reports: per-point comparison of the Monte-Carlo confidence
//! interval against the solver's ε-certificate, and the aggregate verdict.

use crate::Estimate;
use selfish_mining::AttackScenario;
use std::fmt::Write as _;

/// One `(d, f, p, γ)` grid point of a conformance run: the solver's
/// certified revenue bracket next to one Monte-Carlo estimate per consensus
/// backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformancePoint {
    /// Label of the attack scenario the point was solved and witnessed under
    /// (`"optimal"` for the paper's unrestricted model).
    pub scenario: String,
    /// Attack depth `d` of the point.
    pub depth: usize,
    /// Forking number `f` of the point.
    pub forks: usize,
    /// Maximal private fork length `l`.
    pub max_fork_length: usize,
    /// Adversarial resource share `p`.
    pub p: f64,
    /// Switching probability `γ`.
    pub gamma: f64,
    /// Certified lower end of the solver's revenue bracket (`β_low`).
    pub certified_lower: f64,
    /// Certified upper end of the solver's revenue bracket (`β_up`).
    pub certified_upper: f64,
    /// Total slack widening the certificate in the comparison: the solver's
    /// floating-point noise margin plus the statistical margin of the
    /// one-sided CI test (`β_low` is the witnessed strategy's exact revenue,
    /// so the true value sits on the certificate edge); see
    /// [`crate::CERTIFICATE_SLACK`] and [`crate::STATISTICAL_SLACK`].
    pub slack: f64,
    /// Exact expected relative revenue of the exported strategy (lies inside
    /// the certificate).
    pub strategy_revenue: f64,
    /// Number of decision views the exported table covers.
    pub table_entries: usize,
    /// One Monte-Carlo estimate per consensus backend, in configuration
    /// order.
    pub estimates: Vec<Estimate>,
}

impl ConformancePoint {
    /// The certificate widened by the numerical slack: the interval the
    /// conformance comparison actually runs against.
    pub fn certificate(&self) -> (f64, f64) {
        (
            self.certified_lower - self.slack,
            self.certified_upper + self.slack,
        )
    }

    /// Whether every backend's confidence interval overlaps the (slack-
    /// widened) certificate.
    pub fn conforms(&self) -> bool {
        let (lower, upper) = self.certificate();
        self.estimates
            .iter()
            .all(|estimate| estimate.overlaps(lower, upper))
    }

    /// Whether every other backend's confidence interval overlaps the
    /// first (reference) backend's — the ideal-vs-proof-backed cross-check,
    /// with the reference conventionally the Bernoulli ideal
    /// (`ConformanceSettings::backends` configuration order).
    ///
    /// This is `K − 1` comparisons against one anchor, *not* all pairs:
    /// the backends estimate the same law, so demanding pairwise overlap of
    /// `K(K−1)/2` independent confidence intervals fails spuriously as the
    /// matrix grows (a multiple-comparison effect on the noisiest pair),
    /// while anchoring each backend to the shared reference keeps the check
    /// calibrated at any `K`. With the historical two-backend matrix the two
    /// formulations coincide.
    pub fn sources_agree(&self) -> bool {
        match self.estimates.split_first() {
            Some((reference, rest)) => rest.iter().all(|other| reference.agrees_with(other)),
            None => true,
        }
    }

    /// Largest distance between any backend's confidence interval and the
    /// slack-widened certificate (0 if and only if the point conforms).
    pub fn worst_gap(&self) -> f64 {
        let (lower, upper) = self.certificate();
        self.estimates
            .iter()
            .map(|estimate| estimate.gap_to(lower, upper))
            .fold(0.0, f64::max)
    }

    /// Total unknown-view fallbacks across all backends' replicas.
    pub fn unknown_views(&self) -> u64 {
        self.estimates.iter().map(|e| e.unknown_views).sum()
    }
}

/// A restricted-scenario point that breaks restriction dominance
/// ([`ConformanceReport::dominance_violations`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DominanceViolation<'a> {
    /// The restricted-scenario point.
    pub point: &'a ConformancePoint,
    /// The optimal-scenario point at the same `(d, f, p, γ)`; `None` when
    /// the report holds no such reference, which is a violation in itself.
    pub optimal: Option<&'a ConformancePoint>,
}

/// The full grid's conformance verdict: one [`ConformancePoint`] per solved
/// `(d, f, p, γ)` point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConformanceReport {
    /// Points ordered by γ (input order), then `(d, f)` (grid order), then
    /// scenario (configuration order), then `p` (input order).
    pub points: Vec<ConformancePoint>,
}

impl ConformanceReport {
    /// Number of grid points in the report.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether every point's every backend conforms to its certificate.
    pub fn all_conform(&self) -> bool {
        self.points.iter().all(ConformancePoint::conforms)
    }

    /// Whether the backends' estimates agree with each other at every
    /// point.
    pub fn sources_agree(&self) -> bool {
        self.points.iter().all(ConformancePoint::sources_agree)
    }

    /// The points whose confidence interval misses the certificate.
    pub fn violations(&self) -> Vec<&ConformancePoint> {
        self.points.iter().filter(|p| !p.conforms()).collect()
    }

    /// Restriction-dominance violations. Every stubborn scenario is a
    /// sub-MDP of the optimal one, so at the same `(d, f, p, γ)` its
    /// certified lower bound can never exceed the optimal scenario's
    /// certified upper bound plus `slack` (which absorbs solver float
    /// noise). A restricted point without an optimal point at its
    /// coordinates is reported with `optimal: None`. Optimal and
    /// honest-mining points are not checked here; the latter have their own
    /// anchor ([`ConformanceReport::honest_anchor_violations`]).
    pub fn dominance_violations(&self, slack: f64) -> Vec<DominanceViolation<'_>> {
        let optimal_label = AttackScenario::Optimal.label();
        let honest_label = AttackScenario::HonestMining.label();
        let coordinates = |point: &ConformancePoint| {
            (
                point.depth,
                point.forks,
                point.p.to_bits(),
                point.gamma.to_bits(),
            )
        };
        self.points
            .iter()
            .filter(|point| point.scenario != optimal_label && point.scenario != honest_label)
            .filter_map(|point| {
                let optimal = self.points.iter().find(|optimal| {
                    optimal.scenario == optimal_label && coordinates(optimal) == coordinates(point)
                });
                match optimal {
                    Some(optimal) if point.certified_lower <= optimal.certified_upper + slack => {
                        None
                    }
                    _ => Some(DominanceViolation { point, optimal }),
                }
            })
            .collect()
    }

    /// Honest-anchor violations: honest-mining points whose certified
    /// strategy revenue lies more than `epsilon` away from the proportional
    /// share `p`.
    pub fn honest_anchor_violations(&self, epsilon: f64) -> Vec<&ConformancePoint> {
        let honest_label = AttackScenario::HonestMining.label();
        self.points
            .iter()
            .filter(|point| {
                point.scenario == honest_label && (point.strategy_revenue - point.p).abs() > epsilon
            })
            .collect()
    }

    /// Largest CI-to-certificate gap across the grid (0 when everything
    /// conforms).
    pub fn worst_gap(&self) -> f64 {
        self.points
            .iter()
            .map(ConformancePoint::worst_gap)
            .fold(0.0, f64::max)
    }

    /// Total unknown-view fallbacks across the whole grid.
    pub fn unknown_views(&self) -> u64 {
        self.points
            .iter()
            .map(ConformancePoint::unknown_views)
            .sum()
    }

    /// Renders the report as an aligned text table, one row per (point,
    /// backend). The `backend` column prints the descriptor's label, so new
    /// backends render correctly without touching the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>20} {:>5} {:>5} {:>6} {:>6} {:>12} {:>22} {:>20} {:>9} {:>8} {:>7}",
            "scenario",
            "d",
            "f",
            "p",
            "gamma",
            "backend",
            "certificate",
            "simulated CI",
            "replicas",
            "unknown",
            "verdict"
        );
        for point in &self.points {
            let (lower, upper) = point.certificate();
            for estimate in &point.estimates {
                let ok = estimate.overlaps(lower, upper);
                let _ = writeln!(
                    out,
                    "{:>20} {:>5} {:>5} {:>6.2} {:>6.2} {:>12} [{:>9.6}, {:>9.6}] [{:>8.6}, {:>8.6}] {:>9} {:>8} {:>7}",
                    point.scenario,
                    point.depth,
                    point.forks,
                    point.p,
                    point.gamma,
                    estimate.backend.label(),
                    point.certified_lower,
                    point.certified_upper,
                    estimate.lower(),
                    estimate.upper(),
                    estimate.replicas,
                    estimate.unknown_views,
                    if ok { "ok" } else { "MISS" }
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_chain::ConsensusBackend;

    fn estimate(backend: ConsensusBackend, mean: f64, half_width: f64) -> Estimate {
        Estimate {
            backend,
            mean,
            variance: 1e-6,
            half_width,
            replicas: 8,
            steps_per_replica: 1000,
            converged: true,
            unknown_views: 0,
        }
    }

    fn point(mean: f64) -> ConformancePoint {
        ConformancePoint {
            scenario: "optimal".to_string(),
            depth: 2,
            forks: 1,
            max_fork_length: 4,
            p: 0.3,
            gamma: 0.5,
            certified_lower: 0.33,
            certified_upper: 0.34,
            slack: 0.0,
            strategy_revenue: 0.335,
            table_entries: 42,
            estimates: vec![
                estimate(ConsensusBackend::Bernoulli, mean, 0.005),
                estimate(ConsensusBackend::PowLottery, mean + 0.002, 0.005),
            ],
        }
    }

    #[test]
    fn conforming_point_reports_ok() {
        let p = point(0.335);
        assert!(p.conforms());
        assert!(p.sources_agree());
        assert_eq!(p.worst_gap(), 0.0);
        let report = ConformanceReport { points: vec![p] };
        assert!(report.all_conform());
        assert!(report.sources_agree());
        assert!(report.violations().is_empty());
        assert_eq!(report.len(), 1);
        assert!(!report.is_empty());
        let rendered = report.render();
        assert!(rendered.contains("scenario"));
        assert!(rendered.contains("backend"));
        assert!(rendered.contains("optimal"));
        assert!(rendered.contains("bernoulli"));
        assert!(rendered.contains("pow-lottery"));
        assert!(rendered.contains(" ok"));
        assert!(!rendered.contains("MISS"));
    }

    #[test]
    fn violating_point_is_surfaced_with_its_gap() {
        let p = point(0.40);
        assert!(!p.conforms());
        assert!(p.worst_gap() > 0.05);
        let report = ConformanceReport {
            points: vec![point(0.335), p],
        };
        assert!(!report.all_conform());
        assert_eq!(report.violations().len(), 1);
        assert!(report.worst_gap() > 0.05);
        assert!(report.render().contains("MISS"));
    }

    #[test]
    fn source_disagreement_is_detected() {
        let mut p = point(0.335);
        p.estimates[1].mean = 0.36;
        assert!(!p.sources_agree());
    }

    #[test]
    fn nan_estimate_cannot_report_a_zero_gap() {
        // Regression: `gap_to`/`worst_gap` folded with `f64::max`, which
        // silently drops NaN operands — a NaN Monte-Carlo mean (e.g. from a
        // poisoned replica) reported `worst_gap() == 0` while `conforms()`
        // was false, breaking the "0 iff conforms" contract this test pins.
        let mut p = point(f64::NAN);
        assert!(!p.conforms(), "a NaN estimate must not conform");
        assert_eq!(
            p.worst_gap(),
            f64::INFINITY,
            "a NaN estimate must surface an infinite gap, not 0"
        );
        let report = ConformanceReport {
            points: vec![p.clone()],
        };
        assert!(!report.all_conform());
        assert_eq!(report.worst_gap(), f64::INFINITY);
        assert_eq!(report.violations().len(), 1);
        // A NaN half-width poisons the interval the same way.
        p.estimates[0].mean = 0.335;
        p.estimates[0].half_width = f64::NAN;
        assert!(!p.conforms());
        assert_eq!(p.worst_gap(), f64::INFINITY);
    }

    #[test]
    fn worst_gap_is_zero_iff_the_point_conforms() {
        // The invariant the example drivers and CI gate on, across
        // conforming, violating and non-finite estimates.
        for mean in [0.335, 0.40, 0.0, 1.0, f64::NAN] {
            let p = point(mean);
            assert_eq!(
                p.worst_gap() == 0.0,
                p.conforms(),
                "worst_gap/conforms disagree at mean {mean}"
            );
        }
    }

    fn scenario_point(
        scenario: &str,
        p: f64,
        bracket: (f64, f64),
        revenue: f64,
    ) -> ConformancePoint {
        ConformancePoint {
            scenario: scenario.to_string(),
            p,
            certified_lower: bracket.0,
            certified_upper: bracket.1,
            strategy_revenue: revenue,
            ..point(0.335)
        }
    }

    /// Optimal, lead-stubborn and honest-mining points at p = 0.3 and 0.2.
    fn scenario_report() -> ConformanceReport {
        ConformanceReport {
            points: vec![
                scenario_point("optimal", 0.3, (0.33, 0.34), 0.335),
                scenario_point("lead-stubborn", 0.3, (0.32, 0.33), 0.325),
                scenario_point("honest-mining", 0.3, (0.2995, 0.3005), 0.3),
                scenario_point("optimal", 0.2, (0.2, 0.21), 0.205),
                scenario_point("lead-stubborn", 0.2, (0.2, 0.2), 0.2),
                scenario_point("honest-mining", 0.2, (0.1995, 0.2005), 0.2),
            ],
        }
    }

    #[test]
    fn clean_scenario_report_has_no_structural_violations() {
        let report = scenario_report();
        assert!(report.dominance_violations(1e-9).is_empty());
        assert!(report.honest_anchor_violations(1e-3).is_empty());
    }

    #[test]
    fn dominance_violation_names_the_point_and_its_optimal_reference() {
        let mut report = scenario_report();
        report.points[1].certified_lower = 0.34 + 1e-6;
        let violations = report.dominance_violations(1e-9);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].point, &report.points[1]);
        assert_eq!(violations[0].optimal, Some(&report.points[0]));
        // The slack absorbs an excess below it.
        assert!(report.dominance_violations(1e-5).is_empty());
    }

    #[test]
    fn missing_optimal_reference_is_a_dominance_violation() {
        let mut report = scenario_report();
        // Move the p = 0.2 optimal point to other coordinates.
        report.points[3].gamma = 0.25;
        let violations = report.dominance_violations(1e-9);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].point, &report.points[4]);
        assert_eq!(violations[0].optimal, None);
        // Honest-mining points need no optimal reference.
        report
            .points
            .retain(|point| point.scenario == "honest-mining");
        assert!(report.dominance_violations(1e-9).is_empty());
    }

    #[test]
    fn honest_anchor_violation_is_an_honest_point_away_from_p() {
        let mut report = scenario_report();
        report.points[5].strategy_revenue = 0.2 + 2e-3;
        // A restricted point far from p is not an anchor violation.
        report.points[1].strategy_revenue = 0.5;
        let violations = report.honest_anchor_violations(1e-3);
        assert_eq!(violations, vec![&report.points[5]]);
        assert!(report.honest_anchor_violations(5e-3).is_empty());
    }

    #[test]
    fn certificate_slack_absorbs_solver_noise() {
        // A CI missing the raw certificate by less than the slack conforms:
        // the solver's bounds are only certified up to its inner precision.
        let mut p = point(0.33 - 0.005 - 5e-10);
        assert!(!p.conforms());
        p.slack = 1e-6;
        assert!(p.conforms());
        assert_eq!(p.certificate(), (0.33 - 1e-6, 0.34 + 1e-6));
        assert_eq!(p.worst_gap(), 0.0);
    }
}
