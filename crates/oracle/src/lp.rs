//! Linear-programming formulation of the maximal mean-payoff problem.
//!
//! For a unichain MDP the optimal gain `g*` is the optimal value of
//!
//! ```text
//! minimise   g
//! subject to g + h(s) − Σ_{s'} P(s'|s,a) h(s')  ≥  r̄(s,a)   ∀ (s,a)
//!            h(s₀) = 0,   g and h free
//! ```
//!
//! This module builds that LP over the crate's two-phase simplex and extracts
//! a greedy optimal strategy from the optimal bias vector. The LP route is
//! cubic-ish in practice and only used for small models — it exists as an
//! *independent* solver to cross-validate value and policy iteration.

use crate::{
    Comparison, LinearProgram, LpStatus, ObjectiveSense, SimplexSolver, TransitionRewards,
};
use sm_mdp::{Mdp, MdpError, PositionalStrategy};

/// Mean-payoff optimisation via linear programming.
#[derive(Debug, Clone, Default)]
pub struct LinearProgrammingSolver {
    /// Simplex configuration.
    pub simplex: SimplexSolver,
}

impl LinearProgrammingSolver {
    /// Solves for the optimal gain and an optimal strategy.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::RewardShapeMismatch`] if the rewards do not match
    /// the model, [`MdpError::ConvergenceFailure`] if the LP is reported
    /// infeasible or unbounded (which cannot happen for a well-formed unichain
    /// model and therefore indicates a numerical problem), and propagates
    /// simplex errors.
    pub fn solve(
        &self,
        mdp: &Mdp,
        rewards: &TransitionRewards,
    ) -> Result<(f64, PositionalStrategy), MdpError> {
        if !rewards.matches(mdp) {
            return Err(MdpError::RewardShapeMismatch {
                detail: "rewards do not match MDP shape".to_string(),
            });
        }
        let n = mdp.num_states();
        let reference = mdp.initial_state();

        let mut lp = LinearProgram::new(ObjectiveSense::Minimize);
        let g = lp.add_free_variable(1.0);
        let h: Vec<usize> = (0..n).map(|_| lp.add_free_variable(0.0)).collect();

        // Pin the bias of the reference state to zero.
        lp.add_constraint(&[(h[reference], 1.0)], Comparison::Equal, 0.0)?;

        for state in 0..n {
            for action in 0..mdp.num_actions(state) {
                // g + h(s) − Σ P h(s') ≥ r̄(s,a)
                let mut coeffs: Vec<(usize, f64)> = vec![(g, 1.0), (h[state], 1.0)];
                let (targets, probs) = mdp.successors(state, action);
                for (&t, &p) in targets.iter().zip(probs) {
                    coeffs.push((h[t as usize], -p));
                }
                let rhs = rewards.expected_reward(mdp, state, action);
                lp.add_constraint(&coeffs, Comparison::GreaterEq, rhs)?;
            }
        }

        let solution = self.simplex.solve(&lp)?;
        if solution.status != LpStatus::Optimal {
            return Err(MdpError::ConvergenceFailure {
                method: "mean-payoff linear program",
                iterations: 0,
            });
        }
        let gain = solution.values[g];
        let bias: Vec<f64> = h.iter().map(|&idx| solution.values[idx]).collect();

        // Greedy strategy with respect to the optimal bias.
        let mut choices = Vec::with_capacity(n);
        for state in 0..n {
            let mut best = f64::NEG_INFINITY;
            let mut best_action = 0;
            for action in 0..mdp.num_actions(state) {
                let mut value = rewards.expected_reward(mdp, state, action);
                let (targets, probs) = mdp.successors(state, action);
                for (&t, &p) in targets.iter().zip(probs) {
                    value += p * bias[t as usize];
                }
                if value > best {
                    best = value;
                    best_action = action;
                }
            }
            choices.push(best_action);
        }
        Ok((gain, PositionalStrategy::new(choices)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyIteration;
    use sm_mdp::{CsrMdpBuilder, RelativeValueIteration};

    fn better_loop_mdp() -> (Mdp, TransitionRewards) {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action("stay", &[(0, 1.0)]).unwrap();
        b.add_action("go", &[(1, 1.0)]).unwrap();
        b.begin_state();
        b.add_action("loop", &[(1, 1.0)]).unwrap();
        let mdp = b.finish(0).unwrap();
        let r = TransitionRewards::from_fn(&mdp, |s, _, _| if s == 1 { 4.0 } else { 1.0 });
        (mdp, r)
    }

    #[test]
    fn lp_finds_optimal_gain_and_strategy() {
        let (mdp, r) = better_loop_mdp();
        let (gain, sigma) = LinearProgrammingSolver::default().solve(&mdp, &r).unwrap();
        assert!((gain - 4.0).abs() < 1e-7, "gain {gain}");
        assert_eq!(sigma.action(0), 1);
    }

    #[test]
    fn lp_agrees_with_other_solvers_on_stochastic_model() {
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
            0.4 * s as f64 - 0.3 * a as f64 + 0.2 * t as f64
        });
        let (lp_gain, _) = LinearProgrammingSolver::default()
            .solve(&mdp, &rewards)
            .unwrap();
        let (pi_gain, _) = PolicyIteration::default().solve(&mdp, &rewards).unwrap();
        let vi_gain = RelativeValueIteration::with_epsilon(1e-10)
            .solve(&mdp, &rewards.expected_per_pair(&mdp))
            .unwrap()
            .gain;
        assert!((lp_gain - pi_gain).abs() < 1e-6, "{lp_gain} vs {pi_gain}");
        assert!((lp_gain - vi_gain).abs() < 1e-6, "{lp_gain} vs {vi_gain}");
    }

    #[test]
    fn lp_handles_negative_rewards() {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action("loop", &[(0, 1.0)]).unwrap();
        let mdp = b.finish(0).unwrap();
        let r = TransitionRewards::from_fn(&mdp, |_, _, _| -0.75);
        let (gain, _) = LinearProgrammingSolver::default().solve(&mdp, &r).unwrap();
        assert!((gain + 0.75).abs() < 1e-9);
    }

    #[test]
    fn lp_rejects_mismatched_rewards() {
        let (mdp, _) = better_loop_mdp();
        let mut other = CsrMdpBuilder::new();
        other.begin_state();
        other.add_action("x", &[(0, 1.0)]).unwrap();
        let other = other.finish(0).unwrap();
        let wrong = TransitionRewards::zeros(&other);
        assert!(LinearProgrammingSolver::default()
            .solve(&mdp, &wrong)
            .is_err());
    }
}
