//! The formal analysis procedure of Section 3.3 (Algorithm 1).
//!
//! Given a precision parameter `ε > 0`, the procedure computes an `ε`-tight
//! lower bound on the optimal expected relative revenue `ERRev*` together with
//! a strategy achieving it, by binary-searching over `β ∈ [0, 1]` and solving
//! the mean-payoff MDP with reward `r_β = r_A − β (r_A + r_H)` at every step
//! (Theorem 3.1: `MP*_β = 0` iff `β = ERRev*`, and `MP*_β` is monotonically
//! non-increasing in `β`).
//!
//! Besides the paper-faithful bisection, [`AnalysisProcedure::solve_dinkelbach`]
//! implements a Dinkelbach-style acceleration that converges in far fewer
//! mean-payoff solves and is used by the benchmark harness as an ablation of
//! the search strategy; both return the same value up to the precision.

use crate::{SelfishMiningError, SelfishMiningModel};
use sm_mdp::{
    Mdp, MdpError, PositionalStrategy, RelativeValueIteration, SolverParallelism,
    ValueIterationOutcome,
};

/// Iteration cap of the Dinkelbach-style acceleration. Each iteration
/// strictly increases `β` towards the fixed point `ERRev*`, so well-behaved
/// instances converge in a handful of iterations; the cap only guards
/// against a broken inner solver.
const DINKELBACH_ITERATION_LIMIT: usize = 200;

/// Tolerance below which an inner mean payoff is considered zero when the
/// certified interval straddles zero (guards the sign test against solver
/// precision).
const ZERO_TOLERANCE: f64 = 1e-9;

/// Configuration of the analysis procedure.
///
/// Every inner mean-payoff problem is solved by [`RelativeValueIteration`]
/// at the precision `max(ε·10⁻², 10⁻⁹)`, so the procedure's only settings
/// are `ε` itself and the thread allowance.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// The paper's precision parameter `ε`: on termination
    /// `β_up − β_low < ε` and the returned value is an `ε`-tight lower bound.
    pub epsilon: f64,
    /// Intra-solve parallelism: how many threads each inner mean-payoff
    /// solve and each revenue evaluation may fan its Bellman/chain sweeps
    /// over. Results are **bit-identical for any setting** (the sweeps are
    /// Jacobi iterations over disjoint row blocks with block-ordered
    /// statistic folds); the knob only trades wall-clock time for cores.
    /// Defaults to serial — the `sm-sweep` engine raises it per job from its
    /// global thread budget.
    pub parallelism: SolverParallelism,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig::with_epsilon(1e-3)
    }
}

impl AnalysisConfig {
    /// Creates a serial configuration with the given `ε`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        AnalysisConfig {
            epsilon,
            parallelism: SolverParallelism::serial(),
        }
    }

    /// Returns the configuration with the given intra-solve parallelism (see
    /// the [`AnalysisConfig::parallelism`] field).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: SolverParallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// Statistics of a single inner mean-payoff solve.
#[derive(Debug, Clone)]
pub struct SolveStep {
    /// The `β` value the MDP was solved for.
    pub beta: f64,
    /// The optimal mean payoff `MP*_β` reported by the solver (midpoint of
    /// the certified interval).
    pub mean_payoff: f64,
    /// Certified lower bound on `MP*_β`.
    pub gain_lower: f64,
    /// Certified upper bound on `MP*_β`.
    pub gain_upper: f64,
    /// Number of solver iterations.
    pub iterations: usize,
}

/// Warm-start state carried between consecutive Dinkelbach analyses of *the
/// same model family at neighbouring parameter points* (see
/// [`AnalysisProcedure::solve_dinkelbach_warm`]).
#[derive(Debug, Clone)]
pub struct DinkelbachWarmStart {
    /// Starting `β` for the iteration — ideally a good guess of the target
    /// instance's `ERRev*`, e.g. the (extrapolated) revenue of the analysis
    /// at a neighbouring `p`. Any value in `[0, 1]` is *safe*: an undershoot
    /// keeps the textbook monotone ascent, and after an overshoot the first
    /// iteration returns the exact revenue of an achievable strategy (a true
    /// lower bound), from which the ascent resumes — the termination test
    /// `|revenue − β| < ε` brackets `ERRev*` within `ε` in both cases.
    pub beta: f64,
    /// Bias vector seeding the first inner relative-value-iteration solve.
    /// A vector whose length differs from the model's state count (such as
    /// an empty one) means "start cold".
    pub bias: Vec<f64>,
    /// Bias vectors (one per base reward function) seeding the iterative
    /// revenue evaluations on the induced chains. Empty means "start cold".
    pub evaluation_bias: Vec<Vec<f64>>,
}

/// Result of the analysis: the `ε`-tight lower bound on `ERRev*`, the final
/// bracket, the optimal strategy for `r_{β_low}` and per-step statistics.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    /// The returned lower bound `ERRev = β_low ∈ [ERRev* − ε, ERRev*]`.
    pub expected_relative_revenue: f64,
    /// Exact expected relative revenue of the returned strategy (computed by
    /// policy evaluation on the induced chain); by Theorem 3.1 this also lies
    /// in `[ERRev* − ε, ERRev*]`.
    pub strategy_revenue: f64,
    /// Final lower end of the binary-search bracket.
    pub beta_low: f64,
    /// Final upper end of the binary-search bracket.
    pub beta_up: f64,
    /// The `ε`-optimal selfish-mining strategy.
    pub strategy: PositionalStrategy,
    /// Final bias vector of the last inner relative-value-iteration solve —
    /// the witness that lets an *independent* checker re-validate the
    /// certificate with single Jacobi Bellman-residual passes (see the
    /// `sm-audit` crate). Empty for the bisection path
    /// ([`AnalysisProcedure::solve`]), which keeps no bias.
    pub bias: Vec<f64>,
    /// One entry per inner mean-payoff solve.
    pub steps: Vec<SolveStep>,
}

/// The formal analysis procedure (Algorithm 1) and its accelerated variant.
#[derive(Debug, Clone, Default)]
pub struct AnalysisProcedure {
    config: AnalysisConfig,
}

impl AnalysisProcedure {
    /// Creates a procedure with the given configuration.
    pub fn new(config: AnalysisConfig) -> Self {
        AnalysisProcedure { config }
    }

    /// Creates a serial procedure with precision `ε`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        AnalysisProcedure::new(AnalysisConfig::with_epsilon(epsilon))
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Algorithm 1: binary search over `β`.
    ///
    /// # Errors
    ///
    /// Returns [`SelfishMiningError::InvalidParameter`] for a non-positive
    /// `ε` and propagates solver errors.
    pub fn solve(&self, model: &SelfishMiningModel) -> Result<AnalysisResult, SelfishMiningError> {
        if self.config.epsilon.is_nan() || self.config.epsilon <= 0.0 {
            return Err(SelfishMiningError::InvalidParameter {
                name: "epsilon",
                constraint: "must be positive",
            });
        }
        let mut beta_low: f64 = 0.0;
        let mut beta_up: f64 = 1.0;
        let mut steps = Vec::new();
        // Strategy of the most recent solve that moved the lower end; reused
        // by `finalize` so the bracket's endpoint is never re-solved.
        let mut low_strategy: Option<PositionalStrategy> = None;

        while beta_up - beta_low >= self.config.epsilon {
            let beta = 0.5 * (beta_low + beta_up);
            let result = self.inner_solve(model.mdp(), &model.beta_rewards(beta), &[])?;
            steps.push(SolveStep {
                beta,
                mean_payoff: result.gain,
                gain_lower: result.gain_lower,
                gain_upper: result.gain_upper,
                iterations: result.iterations,
            });
            // The inner solver only certifies `MP*_β ∈ [gain_lower,
            // gain_upper]`; move the *upper* end of the bracket only when the
            // whole certified interval clears the zero tolerance. Comparing
            // the point estimate instead (as the pre-fix code did) let a
            // solver-noise sign flip pull `β_up` below the true optimum and
            // invalidate the returned bracket. When the interval straddles
            // zero, `β` is within the certified precision of `ERRev*` and
            // Algorithm 1's `MP_β ≥ 0` branch applies: the lower end moves.
            if result.gain_upper < -ZERO_TOLERANCE {
                beta_up = beta;
            } else {
                beta_low = beta;
                low_strategy = Some(result.strategy);
            }
        }

        self.finalize(
            model,
            beta_low,
            beta_up,
            steps,
            low_strategy,
            None,
            Vec::new(),
        )
    }

    /// Dinkelbach-style acceleration: instead of bisecting, the next `β` is
    /// the exact expected relative revenue of the strategy that was optimal
    /// for the current `β`. The iteration is monotone and converges to
    /// `ERRev*`; it terminates once consecutive values differ by less than
    /// `ε` (or the mean payoff at the current `β` is certified zero).
    ///
    /// # Errors
    ///
    /// Same as [`AnalysisProcedure::solve`], plus
    /// [`SelfishMiningError::ConvergenceFailure`] if the iteration cap is
    /// exhausted.
    pub fn solve_dinkelbach(
        &self,
        model: &SelfishMiningModel,
    ) -> Result<AnalysisResult, SelfishMiningError> {
        self.solve_dinkelbach_warm(model, None)
            .map(|(result, _)| result)
    }

    /// [`AnalysisProcedure::solve_dinkelbach`] with warm-start plumbing, the
    /// inner engine of the `(p, γ)` sweep: the iteration starts from
    /// `warm.beta` instead of 0 and the first inner relative-value-iteration
    /// solve is seeded with `warm.bias`; every subsequent inner solve is
    /// seeded with its predecessor's final bias. On success the final
    /// `(β_low, bias)` pair is returned for the next grid point.
    ///
    /// Correctness does not depend on the warm start: any finite bias vector
    /// is a valid RVI starting point, and any `warm.beta` that lower-bounds
    /// the instance's `ERRev*` (e.g. the certified `β_low` at a smaller `p`)
    /// preserves the monotone convergence of the Dinkelbach iteration.
    ///
    /// # Errors
    ///
    /// Same as [`AnalysisProcedure::solve_dinkelbach`].
    pub fn solve_dinkelbach_warm(
        &self,
        model: &SelfishMiningModel,
        warm: Option<&DinkelbachWarmStart>,
    ) -> Result<(AnalysisResult, DinkelbachWarmStart), SelfishMiningError> {
        if self.config.epsilon.is_nan() || self.config.epsilon <= 0.0 {
            return Err(SelfishMiningError::InvalidParameter {
                name: "epsilon",
                constraint: "must be positive",
            });
        }
        let mut bias: Vec<f64> = warm.map(|w| w.bias.clone()).unwrap_or_default();
        let mut evaluation_bias: Vec<Vec<f64>> =
            warm.map(|w| w.evaluation_bias.clone()).unwrap_or_default();
        let mut beta = warm.map(|w| w.beta.clamp(0.0, 1.0)).unwrap_or(0.0);
        let mut steps = Vec::new();
        for _ in 0..DINKELBACH_ITERATION_LIMIT {
            // The per-pair r_β expectation lives only for the inner solve.
            let result = self.inner_solve(model.mdp(), &model.beta_rewards(beta), &bias)?;
            bias = result.bias;
            steps.push(SolveStep {
                beta,
                mean_payoff: result.gain,
                gain_lower: result.gain_lower,
                gain_upper: result.gain_upper,
                iterations: result.iterations,
            });
            let (revenue, eval_bias) = model.expected_relative_revenue_seeded_with(
                &result.strategy,
                Some(&evaluation_bias),
                self.config.parallelism,
            )?;
            evaluation_bias = eval_bias;
            let certified_zero =
                result.gain_lower >= -ZERO_TOLERANCE && result.gain_upper <= ZERO_TOLERANCE;
            if (revenue - beta).abs() < self.config.epsilon || certified_zero {
                // The strategy in hand is optimal for the final inner solve
                // and `revenue` is its exact value — hand both to `finalize`
                // so the MDP is not solved a second time.
                let analysis = self.finalize(
                    model,
                    revenue.min(1.0),
                    (revenue + self.config.epsilon).min(1.0),
                    steps,
                    Some(result.strategy),
                    Some(revenue),
                    bias.clone(),
                )?;
                let carry = DinkelbachWarmStart {
                    beta: analysis.beta_low,
                    bias,
                    evaluation_bias,
                };
                return Ok((analysis, carry));
            }
            beta = revenue;
        }
        Err(SelfishMiningError::ConvergenceFailure {
            method: "dinkelbach",
            iterations: DINKELBACH_ITERATION_LIMIT,
        })
    }

    /// One inner mean-payoff solve, warm from `seed` when it covers every
    /// state and cold otherwise (a seed is an accelerator, not an input, so
    /// a mis-shaped one is ignored rather than rejected).
    fn inner_solve(
        &self,
        mdp: &Mdp,
        rewards: &[f64],
        seed: &[f64],
    ) -> Result<ValueIterationOutcome, MdpError> {
        // A couple of orders of magnitude tighter than ε: inner-solver noise
        // is invisible next to ε (the sign test additionally consumes the
        // certified gain interval, so a straddling solve can never flip a
        // bracket), while no sweeps go to precision no consumer observes.
        let inner_epsilon = (self.config.epsilon * 1e-2).max(1e-9);
        let solver = RelativeValueIteration::with_epsilon(inner_epsilon)
            .with_parallelism(self.config.parallelism);
        if seed.len() == mdp.num_states() {
            solver.solve_from(mdp, rewards, seed)
        } else {
            solver.solve(mdp, rewards)
        }
    }

    /// Assembles the final [`AnalysisResult`]. When the caller already holds
    /// the optimal strategy of its last inner solve (both search variants
    /// do), it is reused directly instead of re-solving the MDP at `β_low` —
    /// the pre-fix code performed that redundant solve and doubled the final
    /// solve cost.
    #[allow(clippy::too_many_arguments)]
    fn finalize(
        &self,
        model: &SelfishMiningModel,
        beta_low: f64,
        beta_up: f64,
        steps: Vec<SolveStep>,
        strategy: Option<PositionalStrategy>,
        strategy_revenue: Option<f64>,
        bias: Vec<f64>,
    ) -> Result<AnalysisResult, SelfishMiningError> {
        if beta_low > beta_up {
            return Err(SelfishMiningError::BracketingFailure { beta_low, beta_up });
        }
        let strategy = match strategy {
            Some(strategy) => strategy,
            None => {
                // Only reachable when no bisection step ever moved the lower
                // end (e.g. ε ≥ 1): solve once at β_low for the strategy.
                self.inner_solve(model.mdp(), &model.beta_rewards(beta_low), &[])?
                    .strategy
            }
        };
        let strategy_revenue = match strategy_revenue {
            Some(revenue) => revenue,
            None => {
                model
                    .expected_relative_revenue_seeded_with(
                        &strategy,
                        None,
                        self.config.parallelism,
                    )?
                    .0
            }
        };
        Ok(AnalysisResult {
            expected_relative_revenue: beta_low,
            strategy_revenue,
            beta_low,
            beta_up,
            strategy,
            bias,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParametricModel, SelfishMiningModel};

    fn build(p: f64, gamma: f64, d: usize, f: usize, l: usize) -> SelfishMiningModel {
        ParametricModel::build(d, f, l)
            .unwrap()
            .instantiate(p, gamma)
            .unwrap()
    }

    fn analyse(p: f64, gamma: f64, d: usize, f: usize, l: usize, eps: f64) -> AnalysisResult {
        let model = build(p, gamma, d, f, l);
        AnalysisProcedure::with_epsilon(eps).solve(&model).unwrap()
    }

    #[test]
    fn zero_resource_adversary_earns_nothing() {
        let result = analyse(0.0, 0.5, 1, 1, 2, 1e-3);
        assert!(result.expected_relative_revenue < 1e-3);
        assert!(result.strategy_revenue < 1e-9);
    }

    #[test]
    fn revenue_is_at_least_proportional_share() {
        // Selfish mining can only help: ERRev* ≥ p (the adversary can always
        // emulate near-honest behaviour by releasing immediately).
        let result = analyse(0.2, 0.5, 2, 1, 4, 2e-3);
        assert!(
            result.strategy_revenue >= 0.2 - 5e-3,
            "strategy revenue {} should be at least ~p",
            result.strategy_revenue
        );
        // And the lower bound is consistent with the strategy's exact value.
        assert!(result.expected_relative_revenue <= result.strategy_revenue + 2e-3);
    }

    #[test]
    fn bracket_width_respects_epsilon() {
        let result = analyse(0.3, 0.5, 1, 1, 3, 1e-2);
        assert!(result.beta_up - result.beta_low < 1e-2);
        assert!(result.beta_low <= result.beta_up);
        assert!(!result.steps.is_empty());
    }

    #[test]
    fn higher_gamma_does_not_hurt() {
        let low = analyse(0.3, 0.0, 2, 1, 4, 2e-3);
        let high = analyse(0.3, 1.0, 2, 1, 4, 2e-3);
        assert!(
            high.strategy_revenue >= low.strategy_revenue - 2e-3,
            "gamma=1 revenue {} should be >= gamma=0 revenue {}",
            high.strategy_revenue,
            low.strategy_revenue
        );
    }

    #[test]
    fn dinkelbach_agrees_with_bisection() {
        let model = build(0.3, 0.5, 2, 1, 4);
        let procedure = AnalysisProcedure::with_epsilon(1e-3);
        let bisect = procedure.solve(&model).unwrap();
        let dink = procedure.solve_dinkelbach(&model).unwrap();
        assert!(
            (bisect.strategy_revenue - dink.strategy_revenue).abs() < 5e-3,
            "bisection {} vs dinkelbach {}",
            bisect.strategy_revenue,
            dink.strategy_revenue
        );
        // Dinkelbach needs far fewer inner solves than bisection for small ε.
        assert!(dink.steps.len() <= bisect.steps.len() + 2);
    }

    #[test]
    fn mis_shaped_warm_bias_means_a_cold_solve() {
        let model = build(0.3, 0.5, 2, 1, 4);
        let procedure = AnalysisProcedure::with_epsilon(1e-3);
        let (cold, carry) = procedure.solve_dinkelbach_warm(&model, None).unwrap();
        assert_eq!(carry.bias.len(), model.num_states());
        let mis_shaped = DinkelbachWarmStart {
            beta: 0.0,
            bias: vec![0.0],
            evaluation_bias: Vec::new(),
        };
        let (ignored, _) = procedure
            .solve_dinkelbach_warm(&model, Some(&mis_shaped))
            .unwrap();
        assert_eq!(ignored.beta_low.to_bits(), cold.beta_low.to_bits());
        assert_eq!(ignored.strategy, cold.strategy);
        assert_eq!(ignored.bias, cold.bias);
        // A well-shaped seed is used: the re-solve needs no more sweeps.
        let (warm, _) = procedure
            .solve_dinkelbach_warm(&model, Some(&carry))
            .unwrap();
        let sweeps = |r: &AnalysisResult| r.steps.iter().map(|s| s.iterations).sum::<usize>();
        assert!(sweeps(&warm) <= sweeps(&cold));
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let model = build(0.3, 0.5, 1, 1, 2);
        let procedure = AnalysisProcedure::new(AnalysisConfig {
            epsilon: 0.0,
            ..AnalysisConfig::default()
        });
        assert!(matches!(
            procedure.solve(&model),
            Err(SelfishMiningError::InvalidParameter { .. })
        ));
    }
}
