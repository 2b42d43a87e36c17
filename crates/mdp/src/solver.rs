//! Façade over the mean-payoff solvers.

use crate::{
    LinearProgrammingSolver, Mdp, MdpError, PolicyEvaluation, PolicyIteration, PositionalStrategy,
    RelativeValueIteration, SolverParallelism, TransitionRewards,
};

/// Which algorithm a [`MeanPayoffSolver`] should use.
#[derive(Debug, Clone, PartialEq)]
pub enum MeanPayoffMethod {
    /// Relative value iteration (default): sparse sweeps, certified bounds,
    /// scales to the largest selfish-mining models.
    ValueIteration {
        /// Width of the certified gain interval on termination.
        epsilon: f64,
    },
    /// Howard policy iteration: exact evaluation via linear solves; cubic in
    /// the number of states, so intended for small and medium models.
    PolicyIteration,
    /// Linear-programming formulation over the built-in simplex solver;
    /// intended for small models and cross-validation.
    LinearProgramming,
}

impl Default for MeanPayoffMethod {
    fn default() -> Self {
        MeanPayoffMethod::ValueIteration { epsilon: 1e-7 }
    }
}

/// Result of a mean-payoff optimisation.
#[derive(Debug, Clone)]
pub struct MeanPayoffResult {
    /// Optimal gain estimate.
    pub gain: f64,
    /// Certified lower bound on the optimal gain (equals `gain` for the exact
    /// methods).
    pub gain_lower: f64,
    /// Certified upper bound on the optimal gain (equals `gain` for the exact
    /// methods).
    pub gain_upper: f64,
    /// An optimal (ε-optimal for value iteration) positional strategy.
    pub strategy: PositionalStrategy,
    /// Number of iterations/sweeps performed (0 for the LP method).
    pub iterations: usize,
}

/// Solver façade: builds the requested algorithm and normalises its output
/// into a [`MeanPayoffResult`].
///
/// # Example
///
/// ```
/// use sm_mdp::{MdpBuilder, MeanPayoffMethod, MeanPayoffSolver, TransitionRewards};
///
/// # fn main() -> Result<(), sm_mdp::MdpError> {
/// let mut b = MdpBuilder::new(1);
/// b.add_action(0, "loop", vec![(0, 1.0)])?;
/// let mdp = b.build(0)?;
/// let rewards = TransitionRewards::from_fn(&mdp, |_, _, _| 1.5);
/// let solver = MeanPayoffSolver::new(MeanPayoffMethod::PolicyIteration);
/// let result = solver.solve(&mdp, &rewards)?;
/// assert!((result.gain - 1.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct MeanPayoffSolver {
    method: MeanPayoffMethod,
    parallelism: SolverParallelism,
}

impl MeanPayoffSolver {
    /// Creates a solver using the given method.
    pub fn new(method: MeanPayoffMethod) -> Self {
        MeanPayoffSolver {
            method,
            parallelism: SolverParallelism::serial(),
        }
    }

    /// Returns the solver with the given intra-solve parallelism for its
    /// sweep-based methods (currently value iteration; the exact methods run
    /// dense linear algebra and ignore the knob). Results are bit-identical
    /// for any setting — see [`RelativeValueIteration::parallelism`].
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: SolverParallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The method this solver dispatches to.
    pub fn method(&self) -> &MeanPayoffMethod {
        &self.method
    }

    /// The intra-solve parallelism applied to sweep-based methods.
    pub fn parallelism(&self) -> SolverParallelism {
        self.parallelism
    }

    /// Computes the maximal mean payoff of `mdp` under `rewards`.
    ///
    /// # Errors
    ///
    /// Propagates errors of the underlying algorithm (shape mismatches,
    /// convergence failures, singular policy evaluations).
    pub fn solve(
        &self,
        mdp: &Mdp,
        rewards: &TransitionRewards,
    ) -> Result<MeanPayoffResult, MdpError> {
        self.solve_seeded(mdp, rewards, None)
            .map(|(result, _)| result)
    }

    /// [`MeanPayoffSolver::solve`] with warm-start plumbing for solve chains
    /// (parameter sweeps, Dinkelbach iterations): for the value-iteration
    /// method the solve is seeded with a previous bias vector and the final
    /// bias is returned for the next call. The exact methods ignore the seed
    /// and return an empty carry-over; a mis-shaped seed is ignored rather
    /// than rejected (it is an accelerator, not an input).
    ///
    /// # Errors
    ///
    /// Same as [`MeanPayoffSolver::solve`].
    pub fn solve_seeded(
        &self,
        mdp: &Mdp,
        rewards: &TransitionRewards,
        seed: Option<&[f64]>,
    ) -> Result<(MeanPayoffResult, Vec<f64>), MdpError> {
        match &self.method {
            MeanPayoffMethod::ValueIteration { epsilon } => {
                let solver = RelativeValueIteration::with_epsilon(*epsilon)
                    .with_parallelism(self.parallelism);
                let outcome = match seed {
                    Some(bias) if bias.len() == mdp.num_states() => {
                        solver.solve_from(mdp, rewards, bias)?
                    }
                    _ => solver.solve(mdp, rewards)?,
                };
                Ok((
                    MeanPayoffResult {
                        gain: outcome.gain,
                        gain_lower: outcome.gain_lower,
                        gain_upper: outcome.gain_upper,
                        strategy: outcome.strategy,
                        iterations: outcome.iterations,
                    },
                    outcome.bias,
                ))
            }
            MeanPayoffMethod::PolicyIteration => {
                let (gain, strategy) = PolicyIteration::default().solve(mdp, rewards)?;
                Ok((
                    MeanPayoffResult {
                        gain,
                        gain_lower: gain,
                        gain_upper: gain,
                        strategy,
                        iterations: 0,
                    },
                    Vec::new(),
                ))
            }
            MeanPayoffMethod::LinearProgramming => {
                let (gain, strategy) = LinearProgrammingSolver::default().solve(mdp, rewards)?;
                Ok((
                    MeanPayoffResult {
                        gain,
                        gain_lower: gain,
                        gain_upper: gain,
                        strategy,
                        iterations: 0,
                    },
                    Vec::new(),
                ))
            }
        }
    }

    /// Evaluates a *fixed* strategy exactly (gain of the induced unichain).
    /// Convenience used by baselines and tests.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (mismatched shapes, singular systems).
    pub fn evaluate_strategy(
        &self,
        mdp: &Mdp,
        rewards: &TransitionRewards,
        strategy: &PositionalStrategy,
    ) -> Result<f64, MdpError> {
        let eval = PolicyEvaluation::evaluate(mdp, rewards, strategy)?;
        Ok(eval.gain_at(mdp.initial_state()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MdpBuilder;

    fn model() -> (Mdp, TransitionRewards) {
        let mut b = MdpBuilder::new(3);
        b.add_action(0, "a0", vec![(1, 0.6), (2, 0.4)]).unwrap();
        b.add_action(0, "a1", vec![(0, 0.5), (2, 0.5)]).unwrap();
        b.add_action(1, "b0", vec![(0, 1.0)]).unwrap();
        b.add_action(1, "b1", vec![(2, 1.0)]).unwrap();
        b.add_action(2, "c0", vec![(0, 0.5), (1, 0.5)]).unwrap();
        let mdp = b.build(0).unwrap();
        let rewards = TransitionRewards::from_fn(&mdp, |s, a, t| {
            0.3 * s as f64 + 0.7 * a as f64 - 0.1 * t as f64
        });
        (mdp, rewards)
    }

    #[test]
    fn all_methods_agree() {
        let (mdp, rewards) = model();
        let vi = MeanPayoffSolver::new(MeanPayoffMethod::ValueIteration { epsilon: 1e-9 })
            .solve(&mdp, &rewards)
            .unwrap();
        let pi = MeanPayoffSolver::new(MeanPayoffMethod::PolicyIteration)
            .solve(&mdp, &rewards)
            .unwrap();
        let lp = MeanPayoffSolver::new(MeanPayoffMethod::LinearProgramming)
            .solve(&mdp, &rewards)
            .unwrap();
        assert!((vi.gain - pi.gain).abs() < 1e-6);
        assert!((pi.gain - lp.gain).abs() < 1e-6);
        assert!(vi.gain_lower <= vi.gain + 1e-12 && vi.gain <= vi.gain_upper + 1e-12);
    }

    #[test]
    fn value_iteration_bounds_contain_exact_gain() {
        let (mdp, rewards) = model();
        let exact = MeanPayoffSolver::new(MeanPayoffMethod::PolicyIteration)
            .solve(&mdp, &rewards)
            .unwrap()
            .gain;
        let vi = MeanPayoffSolver::new(MeanPayoffMethod::ValueIteration { epsilon: 1e-4 })
            .solve(&mdp, &rewards)
            .unwrap();
        assert!(vi.gain_lower <= exact + 1e-9);
        assert!(exact <= vi.gain_upper + 1e-9);
        assert!(vi.gain_upper - vi.gain_lower <= 1e-4 + 1e-12);
    }

    #[test]
    fn evaluate_strategy_matches_optimum_for_optimal_strategy() {
        let (mdp, rewards) = model();
        let solver = MeanPayoffSolver::new(MeanPayoffMethod::PolicyIteration);
        let result = solver.solve(&mdp, &rewards).unwrap();
        let evaluated = solver
            .evaluate_strategy(&mdp, &rewards, &result.strategy)
            .unwrap();
        assert!((evaluated - result.gain).abs() < 1e-9);
    }

    #[test]
    fn seeded_solve_matches_cold_solve_and_returns_a_carry_bias() {
        let (mdp, rewards) = model();
        let solver = MeanPayoffSolver::new(MeanPayoffMethod::ValueIteration { epsilon: 1e-9 });
        let (cold, bias) = solver.solve_seeded(&mdp, &rewards, None).unwrap();
        assert_eq!(bias.len(), mdp.num_states());
        let (warm, _) = solver.solve_seeded(&mdp, &rewards, Some(&bias)).unwrap();
        assert!((warm.gain - cold.gain).abs() < 2e-9);
        assert_eq!(warm.strategy, cold.strategy);
        assert!(warm.iterations <= cold.iterations);
        // Mis-shaped seeds are ignored, not rejected.
        let (ignored, _) = solver.solve_seeded(&mdp, &rewards, Some(&[0.0])).unwrap();
        assert!((ignored.gain - cold.gain).abs() < 2e-9);
        // Exact methods return an empty carry-over.
        let exact = MeanPayoffSolver::new(MeanPayoffMethod::PolicyIteration);
        let (_, carry) = exact.solve_seeded(&mdp, &rewards, Some(&bias)).unwrap();
        assert!(carry.is_empty());
    }

    #[test]
    fn default_method_is_value_iteration() {
        let solver = MeanPayoffSolver::default();
        assert!(matches!(
            solver.method(),
            MeanPayoffMethod::ValueIteration { .. }
        ));
    }
}
