//! Measurement of chain quality and relative revenue.

/// Result of a simulation run: block counts over the stable part of the main
/// chain and the derived fairness metrics of Section 2.2 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Name of the adversary strategy that was simulated.
    pub strategy: String,
    /// Number of discrete time steps simulated.
    pub steps: usize,
    /// Honest blocks on the stable main chain.
    pub honest_blocks: u64,
    /// Adversarial blocks on the stable main chain.
    pub adversary_blocks: u64,
    /// Final height of the public chain (including the unstable window).
    pub final_height: u64,
}

impl SimulationReport {
    /// Assembles a report.
    pub fn new(
        strategy: String,
        steps: usize,
        honest_blocks: u64,
        adversary_blocks: u64,
        final_height: u64,
    ) -> Self {
        SimulationReport {
            strategy,
            steps,
            honest_blocks,
            adversary_blocks,
            final_height,
        }
    }

    /// Total number of stable blocks counted.
    pub fn total_blocks(&self) -> u64 {
        self.honest_blocks + self.adversary_blocks
    }

    /// Empirical relative revenue of the adversary
    /// (`revenue_A / (revenue_A + revenue_H)`).
    ///
    /// When zero blocks were committed the ratio is `0/0`; instead of
    /// propagating a `NaN` into downstream statistics, the report defines the
    /// value as `0.0` — no committed block means no evidence of adversarial
    /// revenue. [`SimulationReport::chain_quality`] mirrors the convention
    /// with `1.0`. Both are always finite.
    pub fn relative_revenue(&self) -> f64 {
        let total = self.total_blocks();
        if total == 0 {
            return 0.0;
        }
        self.adversary_blocks as f64 / total as f64
    }

    /// Empirical chain quality, the honest fraction of the stable chain.
    ///
    /// Defined as `1.0` when zero blocks were committed (see
    /// [`SimulationReport::relative_revenue`] for the zero-block convention);
    /// never `NaN`.
    pub fn chain_quality(&self) -> f64 {
        let total = self.total_blocks();
        if total == 0 {
            return 1.0;
        }
        self.honest_blocks as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(honest: u64, adversary: u64) -> SimulationReport {
        SimulationReport::new(
            "test".to_string(),
            100,
            honest,
            adversary,
            honest + adversary,
        )
    }

    #[test]
    fn revenue_and_quality_are_complementary() {
        let r = report(70, 30);
        assert!((r.relative_revenue() - 0.3).abs() < 1e-12);
        assert!((r.chain_quality() - 0.7).abs() < 1e-12);
        assert_eq!(r.total_blocks(), 100);
    }

    #[test]
    fn empty_report_has_zero_revenue() {
        let r = report(0, 0);
        assert_eq!(r.relative_revenue(), 0.0);
        assert_eq!(r.chain_quality(), 1.0);
    }

    #[test]
    fn zero_committed_blocks_yield_finite_defined_metrics() {
        // 0/0 must not leak a NaN into the Monte-Carlo statistics: an empty
        // stable chain reports zero revenue and full quality by convention.
        for steps in [0, 100] {
            let r = SimulationReport::new("empty".into(), steps, 0, 0, 0);
            assert!(r.relative_revenue().is_finite());
            assert!(r.chain_quality().is_finite());
            assert_eq!(r.relative_revenue(), 0.0);
            assert_eq!(r.chain_quality(), 1.0);
        }
    }
}
