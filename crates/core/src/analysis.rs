//! The certified analysis of Section 3.3: an `ε`-tight lower bound on the
//! optimal expected relative revenue `ERRev*` together with a strategy
//! achieving it.
//!
//! Theorem 3.1 reduces the ratio objective to mean payoffs: with reward
//! `r_β = r_A − β (r_A + r_H)`, `MP*_β = 0` iff `β = ERRev*`, and `MP*_β` is
//! monotonically non-increasing in `β`. The paper's Algorithm 1
//! binary-searches `β`; the analysis here runs Dinkelbach's ratio iteration
//! over the same mean-payoff family instead, which reaches the same
//! `ε`-bracket in far fewer inner solves and whose final bias vector is the
//! witness `sm-audit` re-validates. Its one entry point is
//! [`crate::experiments::CurveTracker`]; the bisection survives as the
//! reference the test module checks the iteration against.

use crate::experiments::CertifiedSolve;
use crate::{SelfishMiningError, SelfishMiningModel};
use sm_mdp::{Mdp, MdpError, RelativeValueIteration, SolverParallelism, ValueIterationOutcome};

/// Iteration cap of Dinkelbach's iteration. Each iteration
/// strictly increases `β` towards the fixed point `ERRev*`, so well-behaved
/// instances converge in a handful of iterations; the cap only guards
/// against a broken inner solver.
const DINKELBACH_ITERATION_LIMIT: usize = 200;

/// Tolerance below which an inner mean payoff is considered zero when the
/// certified interval straddles zero (guards the termination test against
/// solver precision).
const ZERO_TOLERANCE: f64 = 1e-9;

/// Configuration of the certified analysis.
///
/// Every inner mean-payoff problem is solved by [`RelativeValueIteration`]
/// at the precision `max(ε·10⁻², 10⁻⁹)`, so the analysis's only settings
/// are `ε` itself and the thread allowance.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// The paper's precision parameter `ε`: the certified bracket has
    /// `β_up − β_low ≤ ε` and `β_low` is an `ε`-tight lower bound.
    pub epsilon: f64,
    /// Intra-solve parallelism: how many threads each inner mean-payoff
    /// solve and each revenue evaluation may fan its Bellman/chain sweeps
    /// over. Results are **bit-identical for any setting** (the sweeps are
    /// Jacobi iterations over disjoint row blocks with block-ordered
    /// statistic folds); the knob only trades wall-clock time for cores.
    /// Defaults to serial — the `sm-grid` sweeps raise it per job from their
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
#[derive(Debug, Clone, PartialEq)]
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

/// Warm-start state carried between consecutive analyses of *the same model
/// family at neighbouring parameter points*; it travels only inside
/// [`crate::experiments::CurveCarry`].
#[derive(Debug, Clone)]
pub(crate) struct DinkelbachWarmStart {
    /// Starting `β` for the iteration — ideally a good guess of the target
    /// instance's `ERRev*`, e.g. the (extrapolated) revenue of the analysis
    /// at a neighbouring `p`. Any value in `[0, 1]` is *safe*: an undershoot
    /// keeps the textbook monotone ascent, and after an overshoot the first
    /// iteration returns the exact revenue of an achievable strategy (a true
    /// lower bound), from which the ascent resumes — the termination test
    /// `|revenue − β| < ε` brackets `ERRev*` within `ε` in both cases.
    pub(crate) beta: f64,
    /// Bias vector seeding the first inner relative-value-iteration solve.
    /// A vector whose length differs from the model's state count (such as
    /// an empty one) means "start cold".
    pub(crate) bias: Vec<f64>,
    /// Bias vectors (one per base reward function) seeding the iterative
    /// revenue evaluations on the induced chains. Empty means "start cold".
    pub(crate) evaluation_bias: Vec<Vec<f64>>,
}

/// Dinkelbach's ratio iteration: the next `β` is the exact expected
/// relative revenue of the strategy that was optimal for the current `β`.
/// The iteration is monotone and converges to `ERRev*`; it terminates once
/// consecutive values differ by less than `ε` (or the mean payoff at the
/// current `β` is certified zero), and certifies `[β_low, β_up] =
/// [revenue, revenue + ε]` (clamped into `[0, 1]`) with the strategy in
/// hand, its exact revenue and the bias witness of the last inner solve.
///
/// The iteration starts from `warm.beta` instead of 0, and the first inner
/// relative-value-iteration solve is seeded with `warm.bias`; every
/// subsequent inner solve is seeded with its predecessor's final bias. On
/// success the carry for the next grid point is returned alongside.
/// Correctness does not depend on the warm start: any finite bias vector is
/// a valid RVI starting point, and any `β` seed in `[0, 1]` keeps the `ε`
/// guarantee (see [`DinkelbachWarmStart::beta`]).
///
/// # Errors
///
/// Returns [`SelfishMiningError::InvalidParameter`] for a non-positive
/// `ε`, [`SelfishMiningError::ConvergenceFailure`] if the iteration cap is
/// exhausted, and propagates solver errors.
pub(crate) fn dinkelbach(
    model: &SelfishMiningModel,
    config: &AnalysisConfig,
    warm: Option<DinkelbachWarmStart>,
) -> Result<(CertifiedSolve, DinkelbachWarmStart), SelfishMiningError> {
    let epsilon = config.epsilon;
    if epsilon.is_nan() || epsilon <= 0.0 {
        return Err(SelfishMiningError::InvalidParameter {
            name: "epsilon",
            constraint: "must be positive",
        });
    }
    let (mut beta, mut bias, mut evaluation_bias) = match warm {
        Some(w) => (w.beta.clamp(0.0, 1.0), w.bias, w.evaluation_bias),
        None => (0.0, Vec::new(), Vec::new()),
    };
    let mut steps = Vec::new();
    for _ in 0..DINKELBACH_ITERATION_LIMIT {
        // The per-pair r_β expectation lives only for the inner solve.
        let result = inner_solve(model.mdp(), &model.beta_rewards(beta), &bias, config)?;
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
            config.parallelism,
        )?;
        evaluation_bias = eval_bias;
        let certified_zero =
            result.gain_lower >= -ZERO_TOLERANCE && result.gain_upper <= ZERO_TOLERANCE;
        if (revenue - beta).abs() < epsilon || certified_zero {
            // The strategy in hand is optimal for the final inner solve and
            // `revenue` is its exact value, so the MDP is never solved a
            // second time.
            let solve = CertifiedSolve {
                scenario: model.scenario(),
                p: model.params().p,
                gamma: model.params().gamma,
                beta_low: revenue.min(1.0),
                beta_up: (revenue + epsilon).min(1.0),
                strategy_revenue: revenue,
                strategy: result.strategy,
                epsilon,
                bias: bias.clone(),
                steps,
            };
            let carry = DinkelbachWarmStart {
                beta: solve.beta_low,
                bias,
                evaluation_bias,
            };
            return Ok((solve, carry));
        }
        beta = revenue;
    }
    Err(SelfishMiningError::ConvergenceFailure {
        method: "dinkelbach",
        iterations: DINKELBACH_ITERATION_LIMIT,
    })
}

/// One inner mean-payoff solve, warm from `seed` when it covers every state
/// and cold otherwise (a seed is an accelerator, not an input, so a
/// mis-shaped one is ignored rather than rejected).
fn inner_solve(
    mdp: &Mdp,
    rewards: &[f64],
    seed: &[f64],
    config: &AnalysisConfig,
) -> Result<ValueIterationOutcome, MdpError> {
    // A couple of orders of magnitude tighter than ε: inner-solver noise is
    // invisible next to ε (the termination test additionally consumes the
    // certified gain interval), while no sweeps go to precision no consumer
    // observes.
    let inner_epsilon = (config.epsilon * 1e-2).max(1e-9);
    let solver =
        RelativeValueIteration::with_epsilon(inner_epsilon).with_parallelism(config.parallelism);
    if seed.len() == mdp.num_states() {
        solver.solve_from(mdp, rewards, seed)
    } else {
        solver.solve(mdp, rewards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::CurveTracker;
    use crate::ParametricModel;

    fn build(p: f64, gamma: f64, d: usize, f: usize, l: usize) -> SelfishMiningModel {
        ParametricModel::build(d, f, l)
            .unwrap()
            .instantiate(p, gamma)
            .unwrap()
    }

    /// One point certified the way every caller certifies one: a fresh
    /// `CurveTracker` advanced once.
    fn analyse(p: f64, gamma: f64, d: usize, f: usize, l: usize, eps: f64) -> CertifiedSolve {
        let family = ParametricModel::build(d, f, l).unwrap();
        CurveTracker::new(&family, gamma, true, AnalysisConfig::with_epsilon(eps))
            .advance(p)
            .unwrap()
    }

    /// The paper's Algorithm 1, kept as the reference the iteration is
    /// checked against: binary search over `β` until `β_up − β_low < ε`.
    /// Returns the exact revenue of the last strategy that moved the lower
    /// end and the number of inner solves.
    fn bisection(model: &SelfishMiningModel, epsilon: f64) -> (f64, usize) {
        let config = AnalysisConfig::with_epsilon(epsilon);
        let (mut beta_low, mut beta_up) = (0.0f64, 1.0f64);
        let mut low_strategy = None;
        let mut solves = 0;
        while beta_up - beta_low >= epsilon {
            let beta = 0.5 * (beta_low + beta_up);
            let result = inner_solve(model.mdp(), &model.beta_rewards(beta), &[], &config).unwrap();
            solves += 1;
            // Move the upper end only when the whole certified interval
            // clears zero; a straddling solve is within the precision of
            // `ERRev*`, and Algorithm 1's `MP_β ≥ 0` branch applies.
            if result.gain_upper < -ZERO_TOLERANCE {
                beta_up = beta;
            } else {
                beta_low = beta;
                low_strategy = Some(result.strategy);
            }
        }
        let strategy = low_strategy.expect("ε < 1/2 moves the lower end at least once");
        (model.expected_relative_revenue(&strategy).unwrap(), solves)
    }

    #[test]
    fn zero_resource_adversary_earns_nothing() {
        let result = analyse(0.0, 0.5, 1, 1, 2, 1e-3);
        assert!(result.beta_low < 1e-3);
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
        assert!(result.beta_low <= result.strategy_revenue + 2e-3);
    }

    #[test]
    fn bracket_width_respects_epsilon() {
        let result = analyse(0.3, 0.5, 1, 1, 3, 1e-2);
        assert!(result.beta_up - result.beta_low <= 1e-2 + 1e-12);
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
        let (bisect_revenue, bisect_solves) = bisection(&model, 1e-3);
        let (dink, _) = dinkelbach(&model, &AnalysisConfig::with_epsilon(1e-3), None).unwrap();
        assert!(
            (bisect_revenue - dink.strategy_revenue).abs() < 5e-3,
            "bisection {bisect_revenue} vs dinkelbach {}",
            dink.strategy_revenue
        );
        // Dinkelbach needs far fewer inner solves than bisection for small ε.
        assert!(dink.steps.len() <= bisect_solves + 2);
    }

    #[test]
    fn mis_shaped_warm_bias_means_a_cold_solve() {
        let model = build(0.3, 0.5, 2, 1, 4);
        let config = AnalysisConfig::with_epsilon(1e-3);
        let (cold, carry) = dinkelbach(&model, &config, None).unwrap();
        assert_eq!(carry.bias.len(), model.num_states());
        let mis_shaped = DinkelbachWarmStart {
            beta: 0.0,
            bias: vec![0.0],
            evaluation_bias: Vec::new(),
        };
        let (ignored, _) = dinkelbach(&model, &config, Some(mis_shaped)).unwrap();
        assert_eq!(ignored, cold);
        // A well-shaped seed is used: the re-solve needs no more sweeps.
        let (warm, _) = dinkelbach(&model, &config, Some(carry)).unwrap();
        let sweeps = |r: &CertifiedSolve| r.steps.iter().map(|s| s.iterations).sum::<usize>();
        assert!(sweeps(&warm) <= sweeps(&cold));
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let family = ParametricModel::build(1, 1, 2).unwrap();
        let mut tracker = CurveTracker::new(&family, 0.5, true, AnalysisConfig::with_epsilon(0.0));
        assert!(matches!(
            tracker.advance(0.3),
            Err(SelfishMiningError::InvalidParameter { .. })
        ));
    }
}
