//! Howard policy iteration for mean-payoff MDPs (multichain-safe).
//!
//! Policy iteration evaluates candidate strategies *exactly* (up to floating
//! point) by computing the gain and bias of the induced Markov chain, and
//! improves greedily until no improvement exists. Unlike the unichain-only
//! textbook variant, the evaluation and improvement steps here follow the
//! multichain formulation (Puterman, Ch. 9): gains may differ across states
//! while a strategy is still suboptimal, even if — as in the selfish-mining
//! MDP — every *reasonable* strategy eventually induces a single recurrent
//! class.
//!
//! It is used as a high-precision cross-check of
//! `sm_mdp::RelativeValueIteration` on small and medium models, mirroring
//! how the paper can switch Storm engines.

use crate::{
    long_run_average_reward, solve_linear_system, ChainAnalysis, DenseMatrix, OracleError,
    StateClass, TransitionRewards,
};
use sm_mdp::{Mdp, MdpError, PositionalStrategy};

/// Exact evaluation of a positional strategy under the mean-payoff objective:
/// per-state gain and a bias vector (normalised to 0 at one reference state
/// per recurrent class of the induced chain).
#[derive(Debug, Clone)]
pub struct PolicyEvaluation {
    /// Long-run average reward of the strategy, per state.
    pub gain: Vec<f64>,
    /// Bias (relative value) vector.
    pub bias: Vec<f64>,
}

impl PolicyEvaluation {
    /// Evaluates `strategy` on `mdp` with `rewards`.
    ///
    /// The gain is computed from the stationary distributions of the recurrent
    /// classes of the induced chain (weighted by absorption probabilities for
    /// transient states); the bias solves
    /// `h(s) = r_σ(s) − g(s) + Σ_{s'} P_σ(s'|s) h(s')`
    /// with `h = 0` pinned at one state of every recurrent class.
    ///
    /// # Errors
    ///
    /// Returns an error if the strategy or rewards do not match the model or
    /// if a linear solve fails.
    pub fn evaluate(
        mdp: &Mdp,
        rewards: &TransitionRewards,
        strategy: &PositionalStrategy,
    ) -> Result<Self, OracleError> {
        let n = mdp.num_states();
        let r_sigma = rewards.strategy_rewards(mdp, strategy)?;
        let chain = mdp.induced_chain(strategy)?;
        let gain = long_run_average_reward(&chain, &r_sigma)?;

        // Pin one reference state per recurrent class.
        let scc = chain.classify();
        let mut pinned = vec![false; n];
        let mut seen_class = std::collections::HashSet::new();
        for (s, class) in scc.state_classes().iter().enumerate() {
            if let StateClass::Recurrent { class } = class {
                if seen_class.insert(*class) {
                    pinned[s] = true;
                }
            }
        }

        // Unknowns: bias of every non-pinned state.
        let mut column_of = vec![usize::MAX; n];
        let mut next_col = 0;
        for s in 0..n {
            if !pinned[s] {
                column_of[s] = next_col;
                next_col += 1;
            }
        }
        let m = next_col;
        let mut bias = vec![0.0; n];
        if m > 0 {
            let mut a = DenseMatrix::zeros(m, m);
            let mut b = vec![0.0; m];
            let mut row = 0;
            for s in 0..n {
                if pinned[s] {
                    continue;
                }
                // h(s) − Σ P(s'|s) h(s') = r(s) − g(s)
                let c = column_of[s];
                a.set(row, c, a.get(row, c) + 1.0);
                let (targets, probs) = mdp.successors(s, strategy.action(s));
                for (&t, &p) in targets.iter().zip(probs) {
                    let t = t as usize;
                    if !pinned[t] {
                        let ct = column_of[t];
                        a.set(row, ct, a.get(row, ct) - p);
                    }
                }
                b[row] = r_sigma[s] - gain[s];
                row += 1;
            }
            let h = solve_linear_system(&a, &b)?;
            for s in 0..n {
                if !pinned[s] {
                    bias[s] = h[column_of[s]];
                }
            }
        }
        Ok(PolicyEvaluation { gain, bias })
    }

    /// Gain at the given state (convenience accessor).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn gain_at(&self, state: usize) -> f64 {
        self.gain[state]
    }
}

/// Howard policy iteration for the maximal mean-payoff objective.
///
/// # Example
///
/// ```
/// use sm_mdp::CsrMdpBuilder;
/// use sm_oracle::TransitionRewards;
/// use sm_oracle::PolicyIteration;
///
/// # fn main() -> Result<(), sm_oracle::OracleError> {
/// let mut b = CsrMdpBuilder::new();
/// b.begin_state();
/// b.add_action("stay", &[(0, 1.0)])?;
/// b.add_action("go", &[(1, 1.0)])?;
/// b.begin_state();
/// b.add_action("loop", &[(1, 1.0)])?;
/// let mdp = b.finish(0)?;
/// let r = TransitionRewards::from_fn(&mdp, |s, _, _| if s == 1 { 2.0 } else { 1.0 });
/// let (gain, strategy) = PolicyIteration::default().solve(&mdp, &r)?;
/// assert!((gain - 2.0).abs() < 1e-9);
/// assert_eq!(strategy.action(0), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PolicyIteration {
    /// Improvement tolerance: an action must improve the gain or bias Bellman
    /// value by more than this to replace the incumbent (guards against
    /// cycling on floating-point ties).
    pub improvement_tolerance: f64,
    /// Maximum number of policy-improvement rounds.
    pub max_iterations: usize,
}

impl Default for PolicyIteration {
    fn default() -> Self {
        PolicyIteration {
            improvement_tolerance: 1e-9,
            max_iterations: 10_000,
        }
    }
}

impl PolicyIteration {
    /// Runs policy iteration and returns the optimal gain *at the initial
    /// state* together with an optimal positional strategy.
    ///
    /// # Errors
    ///
    /// Returns an error if the rewards do not match the model, if policy
    /// evaluation fails, or if the iteration budget is exhausted.
    pub fn solve(
        &self,
        mdp: &Mdp,
        rewards: &TransitionRewards,
    ) -> Result<(f64, PositionalStrategy), OracleError> {
        let (eval, strategy) = self.solve_with_evaluation(mdp, rewards)?;
        Ok((eval.gain_at(mdp.initial_state()), strategy))
    }

    /// Like [`PolicyIteration::solve`] but also returns the full evaluation
    /// (per-state gains and biases) of the optimal strategy.
    fn solve_with_evaluation(
        &self,
        mdp: &Mdp,
        rewards: &TransitionRewards,
    ) -> Result<(PolicyEvaluation, PositionalStrategy), OracleError> {
        if !rewards.matches(mdp) {
            return Err(MdpError::RewardShapeMismatch {
                detail: "rewards do not match MDP shape".to_string(),
            }
            .into());
        }
        let n = mdp.num_states();
        // Mirror the value-iteration guard: a state with an empty action range
        // has no policy to iterate on and must fail loudly, not via a later
        // panic or a NaN evaluation.
        if let Some(state) = (0..n).find(|&s| mdp.num_actions(s) == 0) {
            return Err(MdpError::NoActions { state }.into());
        }
        let tol = self.improvement_tolerance;
        let mut strategy = PositionalStrategy::uniform_first_action(n);

        for _ in 0..self.max_iterations {
            let eval = PolicyEvaluation::evaluate(mdp, rewards, &strategy)?;
            let mut improved = false;
            let mut next = strategy.clone();
            for s in 0..n {
                let current = strategy.action(s);
                // Stage 1: improve the expected future gain Σ P(s'|s,a) g(s').
                let gain_of = |a: usize| -> f64 {
                    let (targets, probs) = mdp.successors(s, a);
                    targets
                        .iter()
                        .zip(probs)
                        .map(|(&t, &p)| p * eval.gain[t as usize])
                        .sum()
                };
                let current_gain = gain_of(current);
                let mut best_gain = current_gain;
                let mut best_gain_action = current;
                for a in 0..mdp.num_actions(s) {
                    let g = gain_of(a);
                    if g > best_gain + tol {
                        best_gain = g;
                        best_gain_action = a;
                    }
                }
                if best_gain_action != current {
                    next.set_action(s, best_gain_action);
                    improved = true;
                    continue;
                }
                // Stage 2: among gain-maximising actions, improve the bias
                // Bellman value r̄(s,a) − g(s) + Σ P h(s').
                let bias_value = |a: usize| -> f64 {
                    let mut v = rewards.expected_reward(mdp, s, a) - eval.gain[s];
                    let (targets, probs) = mdp.successors(s, a);
                    for (&t, &p) in targets.iter().zip(probs) {
                        v += p * eval.bias[t as usize];
                    }
                    v
                };
                let current_bias = bias_value(current);
                let mut best_bias = current_bias;
                let mut best_bias_action = current;
                for a in 0..mdp.num_actions(s) {
                    if gain_of(a) < best_gain - tol {
                        continue;
                    }
                    let v = bias_value(a);
                    if v > best_bias + tol {
                        best_bias = v;
                        best_bias_action = a;
                    }
                }
                if best_bias_action != current {
                    next.set_action(s, best_bias_action);
                    improved = true;
                }
            }
            if !improved {
                return Ok((eval, strategy));
            }
            strategy = next;
        }
        Err(MdpError::ConvergenceFailure {
            method: "policy iteration",
            iterations: self.max_iterations,
        }
        .into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearProgrammingSolver;
    use sm_mdp::{CsrMdpBuilder, RelativeValueIteration};

    fn random_like_mdp() -> (Mdp, TransitionRewards) {
        // A small hand-built MDP with non-trivial stochastic structure.
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action("a0", &[(0, 0.2), (1, 0.8)]).unwrap();
        b.add_action("a1", &[(2, 1.0)]).unwrap();
        b.begin_state();
        b.add_action("b0", &[(0, 0.5), (2, 0.5)]).unwrap();
        b.add_action("b1", &[(1, 0.9), (0, 0.1)]).unwrap();
        b.begin_state();
        b.add_action("c0", &[(0, 0.3), (1, 0.3), (2, 0.4)]).unwrap();
        let mdp = b.finish(0).unwrap();
        let rewards = TransitionRewards::from_fn(&mdp, |s, a, t| {
            (s as f64) * 0.5 + (a as f64) * 0.25 + (t as f64) * 0.1
        });
        (mdp, rewards)
    }

    fn mixed_reward_mdp() -> (Mdp, TransitionRewards) {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action("a0", &[(1, 0.6), (2, 0.4)]).unwrap();
        b.add_action("a1", &[(0, 0.5), (2, 0.5)]).unwrap();
        b.begin_state();
        b.add_action("b0", &[(0, 1.0)]).unwrap();
        b.add_action("b1", &[(2, 1.0)]).unwrap();
        b.begin_state();
        b.add_action("c0", &[(0, 0.5), (1, 0.5)]).unwrap();
        let mdp = b.finish(0).unwrap();
        let rewards = TransitionRewards::from_fn(&mdp, |s, a, t| {
            0.3 * s as f64 + 0.7 * a as f64 - 0.1 * t as f64
        });
        (mdp, rewards)
    }

    #[test]
    fn all_methods_agree() {
        let (mdp, rewards) = mixed_reward_mdp();
        let vi = RelativeValueIteration::with_epsilon(1e-9)
            .solve(&mdp, &rewards.expected_per_pair(&mdp))
            .unwrap();
        let (pi_gain, _) = PolicyIteration::default().solve(&mdp, &rewards).unwrap();
        let (lp_gain, _) = LinearProgrammingSolver::default()
            .solve(&mdp, &rewards)
            .unwrap();
        assert!((vi.gain - pi_gain).abs() < 1e-6);
        assert!((pi_gain - lp_gain).abs() < 1e-6);
        assert!(vi.gain_lower <= vi.gain + 1e-12 && vi.gain <= vi.gain_upper + 1e-12);
    }

    #[test]
    fn value_iteration_bounds_contain_exact_gain() {
        let (mdp, rewards) = mixed_reward_mdp();
        let (exact, _) = PolicyIteration::default().solve(&mdp, &rewards).unwrap();
        let vi = RelativeValueIteration::with_epsilon(1e-4)
            .solve(&mdp, &rewards.expected_per_pair(&mdp))
            .unwrap();
        assert!(vi.gain_lower <= exact + 1e-9);
        assert!(exact <= vi.gain_upper + 1e-9);
        assert!(vi.gain_upper - vi.gain_lower <= 1e-4 + 1e-12);
    }

    #[test]
    fn evaluation_of_the_optimal_strategy_matches_the_optimum() {
        let (mdp, rewards) = mixed_reward_mdp();
        let (gain, strategy) = PolicyIteration::default().solve(&mdp, &rewards).unwrap();
        let eval = PolicyEvaluation::evaluate(&mdp, &rewards, &strategy).unwrap();
        assert!((eval.gain_at(mdp.initial_state()) - gain).abs() < 1e-9);
    }

    #[test]
    fn evaluation_matches_stationary_average() {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action("a", &[(0, 0.7), (1, 0.3)]).unwrap();
        b.begin_state();
        b.add_action("b", &[(0, 0.6), (1, 0.4)]).unwrap();
        let mdp = b.finish(0).unwrap();
        let rewards = TransitionRewards::from_fn(&mdp, |s, _, _| if s == 0 { 3.0 } else { 0.0 });
        let sigma = PositionalStrategy::uniform_first_action(2);
        let eval = PolicyEvaluation::evaluate(&mdp, &rewards, &sigma).unwrap();
        // Stationary distribution (2/3, 1/3); gain = 2.
        assert!((eval.gain_at(0) - 2.0).abs() < 1e-10);
        assert!((eval.gain_at(1) - 2.0).abs() < 1e-10);
    }

    #[test]
    fn evaluation_satisfies_bias_equations() {
        let (mdp, rewards) = random_like_mdp();
        let sigma = PositionalStrategy::new(vec![0, 1, 0]);
        let eval = PolicyEvaluation::evaluate(&mdp, &rewards, &sigma).unwrap();
        let r_sigma = rewards.strategy_rewards(&mdp, &sigma).unwrap();
        for (s, &r_s) in r_sigma.iter().enumerate() {
            let mut rhs = r_s - eval.gain[s];
            let (targets, probs) = mdp.successors(s, sigma.action(s));
            for (&t, &p) in targets.iter().zip(probs) {
                rhs += p * eval.bias[t as usize];
            }
            assert!(
                (eval.bias[s] - rhs).abs() < 1e-9,
                "bias equation violated at state {s}"
            );
        }
    }

    #[test]
    fn policy_iteration_finds_better_loop_despite_multichain_start() {
        // The initial all-zeros strategy induces two disjoint recurrent
        // classes ({0} and {1}); multichain evaluation must handle this.
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action("stay", &[(0, 1.0)]).unwrap();
        b.add_action("go", &[(1, 1.0)]).unwrap();
        b.begin_state();
        b.add_action("loop", &[(1, 1.0)]).unwrap();
        let mdp = b.finish(0).unwrap();
        let r = TransitionRewards::from_fn(&mdp, |s, _, _| if s == 1 { 5.0 } else { 1.0 });
        let (gain, sigma) = PolicyIteration::default().solve(&mdp, &r).unwrap();
        assert!((gain - 5.0).abs() < 1e-10);
        assert_eq!(sigma.action(0), 1);
    }

    #[test]
    fn agrees_with_value_iteration() {
        let (mdp, rewards) = random_like_mdp();
        let (pi_gain, _) = PolicyIteration::default().solve(&mdp, &rewards).unwrap();
        let vi = RelativeValueIteration::with_epsilon(1e-10)
            .solve(&mdp, &rewards.expected_per_pair(&mdp))
            .unwrap();
        assert!(
            (pi_gain - vi.gain).abs() < 1e-6,
            "policy iteration {pi_gain} vs value iteration {}",
            vi.gain
        );
    }

    #[test]
    fn empty_action_range_fails_loudly() {
        use sm_mdp::CsrLayout;
        use std::sync::Arc;
        let layout = CsrLayout::from_raw_parts(vec![0, 1, 1], vec![0, 1], vec![0]).unwrap();
        let mdp = Mdp::from_raw_parts(
            Arc::new(layout),
            vec![1.0],
            vec!["loop".to_string()],
            vec![0],
            0,
        )
        .unwrap();
        let rewards = TransitionRewards::zeros(&mdp);
        assert!(matches!(
            PolicyIteration::default().solve(&mdp, &rewards),
            Err(OracleError::Mdp(MdpError::NoActions { state: 1 }))
        ));
    }

    #[test]
    fn rejects_mismatched_rewards() {
        let (mdp, _) = random_like_mdp();
        let mut other = CsrMdpBuilder::new();
        other.begin_state();
        other.add_action("x", &[(0, 1.0)]).unwrap();
        let other = other.finish(0).unwrap();
        let wrong = TransitionRewards::zeros(&other);
        assert!(PolicyIteration::default().solve(&mdp, &wrong).is_err());
        let sigma = PositionalStrategy::uniform_first_action(3);
        assert!(PolicyEvaluation::evaluate(&mdp, &wrong, &sigma).is_err());
    }
}
