//! Per-transition reward functions `r : S × A × S → ℝ` aligned with an
//! MDP's transitions.
//!
//! The production stack keeps rewards per state-action pair (the solver
//! takes one expected reward per pair); the exact oracles here — policy
//! iteration and the pruned selfish-mining oracle of the integration tests —
//! still reason about per-successor rewards.

use sm_mdp::{CsrLayout, Mdp, MdpError, PositionalStrategy};
use std::sync::Arc;

/// A reward function over state-action-successor triples, stored as **one
/// flat buffer** aligned with the CSR transition arena of a particular
/// [`Mdp`]: entry `k` of the buffer is the reward of arena transition `k`
/// (the one with successor `layout.col()[k]` and probability
/// `mdp.probabilities()[k]`). The index arrays themselves are shared
/// with the MDP via [`Arc`], so alignment checks are pointer comparisons and
/// the `r_β` affine combinations are straight slice zips.
///
/// The selfish-mining analysis needs two base reward functions (`r_A` counting
/// adversarial finalized blocks and `r_H` counting honest finalized blocks)
/// and, inside every step of the `β` search, the combination
/// `r_β = r_A − β · (r_A + r_H)`. [`TransitionRewards::affine_combination`]
/// builds exactly that per transition, and
/// [`TransitionRewards::expected_per_pair`] reduces it to the per-pair input
/// `sm_mdp::RelativeValueIteration` takes.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionRewards {
    /// The arena index arrays this buffer is aligned with.
    layout: Arc<CsrLayout>,
    /// One reward per arena transition, aligned with `layout.col()`.
    values: Vec<f64>,
}

impl TransitionRewards {
    /// Builds rewards by evaluating `f(state, action, successor)` on every
    /// transition of the MDP.
    pub fn from_fn(mdp: &Mdp, mut f: impl FnMut(usize, usize, usize) -> f64) -> Self {
        let layout = mdp.layout_arc();
        let mut values = Vec::with_capacity(layout.num_transitions());
        for state in 0..layout.num_states() {
            for (action, pair) in layout.pair_range(state).enumerate() {
                for &target in &layout.col()[layout.transition_range(pair)] {
                    values.push(f(state, action, target as usize));
                }
            }
        }
        TransitionRewards { layout, values }
    }

    /// Builds an all-zero reward structure for the given MDP.
    pub fn zeros(mdp: &Mdp) -> Self {
        let layout = mdp.layout_arc();
        let values = vec![0.0; layout.num_transitions()];
        TransitionRewards { layout, values }
    }

    /// Wraps an already-flat per-transition buffer (aligned with the arena in
    /// construction order).
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::RewardShapeMismatch`] if `values.len()` differs
    /// from the MDP's transition count.
    pub fn from_transition_values(mdp: &Mdp, values: Vec<f64>) -> Result<Self, MdpError> {
        let layout = mdp.layout_arc();
        if values.len() != layout.num_transitions() {
            return Err(MdpError::RewardShapeMismatch {
                detail: format!(
                    "flat reward buffer has {} entries, arena has {} transitions",
                    values.len(),
                    layout.num_transitions()
                ),
            });
        }
        Ok(TransitionRewards { layout, values })
    }

    /// Builds rewards that are constant per state-action pair: transition `k`
    /// of pair `i` gets `per_pair[i]`. Since `Σ_{s'} P(s'|s,a) = 1`, the
    /// expected one-step reward of the pair equals `per_pair[i]` — the
    /// per-transition replica of the selfish-mining model's per-pair
    /// expected block counts.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::RewardShapeMismatch`] if `per_pair.len()` differs
    /// from the MDP's state-action pair count.
    pub fn from_pair_values(mdp: &Mdp, per_pair: &[f64]) -> Result<Self, MdpError> {
        let layout = mdp.layout_arc();
        if per_pair.len() != layout.num_pairs() {
            return Err(MdpError::RewardShapeMismatch {
                detail: format!(
                    "per-pair reward buffer has {} entries, arena has {} pairs",
                    per_pair.len(),
                    layout.num_pairs()
                ),
            });
        }
        let mut values = Vec::with_capacity(layout.num_transitions());
        for (pair, &value) in per_pair.iter().enumerate() {
            values.resize(values.len() + layout.transition_range(pair).len(), value);
        }
        Ok(TransitionRewards { layout, values })
    }

    /// The flat per-transition reward buffer, aligned with the arena.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The reward of the `transition_index`-th successor of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn reward(&self, state: usize, action: usize, transition_index: usize) -> f64 {
        let range = self
            .layout
            .transition_range(self.layout.pair_index(state, action));
        self.values[range][transition_index]
    }

    /// Expected one-step reward of taking `action` in `state`:
    /// `Σ_{s'} P(s'|s,a) · r(s,a,s')`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds or the reward structure does
    /// not match the MDP.
    pub fn expected_reward(&self, mdp: &Mdp, state: usize, action: usize) -> f64 {
        let (_, probs) = mdp.successors(state, action);
        let range = self
            .layout
            .transition_range(self.layout.pair_index(state, action));
        probs
            .iter()
            .zip(&self.values[range])
            .map(|(&p, &r)| p * r)
            .sum()
    }

    /// Expected one-step reward of *every* state-action pair, as one flat
    /// buffer indexed by arena pair offset: `out[pair] = Σ_{s'} P(s'|s,a) ·
    /// r(s,a,s')` — the reward input of `sm_mdp::RelativeValueIteration`.
    ///
    /// # Panics
    ///
    /// Panics if the reward structure does not match the MDP (callers check
    /// [`TransitionRewards::matches`] first).
    pub fn expected_per_pair(&self, mdp: &Mdp) -> Vec<f64> {
        let action_ptr = mdp.layout().action_ptr();
        let prob = mdp.probabilities();
        let mut expected = vec![0.0; mdp.num_pairs()];
        for (pair, slot) in expected.iter_mut().enumerate() {
            let range = action_ptr[pair] as usize..action_ptr[pair + 1] as usize;
            *slot = prob[range.clone()]
                .iter()
                .zip(&self.values[range])
                .map(|(&p, &r)| p * r)
                .sum();
        }
        expected
    }

    /// Per-state expected rewards under a positional strategy, the reward
    /// vector of the induced Markov chain.
    ///
    /// # Errors
    ///
    /// Returns an error if the strategy shape does not match the MDP.
    pub fn strategy_rewards(
        &self,
        mdp: &Mdp,
        strategy: &PositionalStrategy,
    ) -> Result<Vec<f64>, MdpError> {
        if strategy.num_states() != mdp.num_states() {
            return Err(MdpError::RewardShapeMismatch {
                detail: format!(
                    "strategy covers {} states, MDP has {}",
                    strategy.num_states(),
                    mdp.num_states()
                ),
            });
        }
        if !self.matches(mdp) {
            return Err(MdpError::RewardShapeMismatch {
                detail: "rewards do not match MDP shape".to_string(),
            });
        }
        (0..mdp.num_states())
            .map(|state| {
                let action = strategy.action(state);
                if action >= mdp.num_actions(state) {
                    return Err(MdpError::InvalidAction {
                        state,
                        action,
                        available: mdp.num_actions(state),
                    });
                }
                Ok(self.expected_reward(mdp, state, action))
            })
            .collect()
    }

    /// Builds the affine combination `alpha · self + beta · other` (entry-wise
    /// over all transitions). Used to form the paper's `r_β`:
    /// `r_β = 1·r_A − β·(r_A + r_H)`, i.e.
    /// `r_A.affine_combination(&r_total, 1.0, -beta)`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::RewardShapeMismatch`] if the two structures are not
    /// aligned with the same CSR arena.
    pub fn affine_combination(
        &self,
        other: &TransitionRewards,
        alpha: f64,
        beta: f64,
    ) -> Result<TransitionRewards, MdpError> {
        if !self.same_layout(other) {
            return Err(MdpError::RewardShapeMismatch {
                detail: "affine combination of differently-shaped rewards".to_string(),
            });
        }
        let values = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(&a, &b)| alpha * a + beta * b)
            .collect();
        Ok(TransitionRewards {
            layout: Arc::clone(&self.layout),
            values,
        })
    }

    /// Entry-wise sum, a convenience wrapper around
    /// [`TransitionRewards::affine_combination`] with coefficients 1, 1.
    ///
    /// # Errors
    ///
    /// Same as [`TransitionRewards::affine_combination`].
    pub fn sum(&self, other: &TransitionRewards) -> Result<TransitionRewards, MdpError> {
        self.affine_combination(other, 1.0, 1.0)
    }

    /// Checks whether the reward structure is aligned with the arena of
    /// `mdp`. Buffers built from the same `Mdp` (or a clone of it) share the
    /// layout by pointer, making this check O(1); otherwise the index arrays
    /// are compared structurally.
    pub fn matches(&self, mdp: &Mdp) -> bool {
        Arc::ptr_eq(&self.layout, &mdp.layout_arc()) || *self.layout == *mdp.layout()
    }

    fn same_layout(&self, other: &TransitionRewards) -> bool {
        Arc::ptr_eq(&self.layout, &other.layout) || *self.layout == *other.layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_mdp::CsrMdpBuilder;

    fn mdp() -> Mdp {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(0, 0.5), (1, 0.5)]).unwrap();
        b.add_action(&[(1, 1.0)]).unwrap();
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn from_fn_aligns_with_transitions() {
        let mdp = mdp();
        let r = TransitionRewards::from_fn(&mdp, |_, _, target| target as f64);
        assert_eq!(r.reward(0, 0, 0), 0.0);
        assert_eq!(r.reward(0, 0, 1), 1.0);
        assert_eq!(r.reward(0, 1, 0), 1.0);
        assert!(r.matches(&mdp));
        assert_eq!(r.values().len(), mdp.num_transitions());
    }

    #[test]
    fn expected_reward_weights_by_probability() {
        let mdp = mdp();
        let r = TransitionRewards::from_fn(&mdp, |_, _, target| target as f64 * 2.0);
        assert!((r.expected_reward(&mdp, 0, 0) - 1.0).abs() < 1e-15);
        assert!((r.expected_reward(&mdp, 0, 1) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn strategy_rewards_follow_choices() {
        let mdp = mdp();
        let r = TransitionRewards::from_fn(&mdp, |_, action, _| action as f64);
        let sigma = PositionalStrategy::new(vec![1, 0]);
        let rewards = r.strategy_rewards(&mdp, &sigma).unwrap();
        assert_eq!(rewards, vec![1.0, 0.0]);
        let bad = PositionalStrategy::new(vec![7, 0]);
        assert!(r.strategy_rewards(&mdp, &bad).is_err());
        let short = PositionalStrategy::new(vec![0]);
        assert!(r.strategy_rewards(&mdp, &short).is_err());
    }

    #[test]
    fn affine_combination_matches_manual_computation() {
        let mdp = mdp();
        let ra = TransitionRewards::from_fn(&mdp, |_, _, _| 1.0);
        let rh =
            TransitionRewards::from_fn(&mdp, |_, _, target| if target == 1 { 1.0 } else { 0.0 });
        let total = ra.sum(&rh).unwrap();
        let beta = 0.25;
        let r_beta = ra.affine_combination(&total, 1.0, -beta).unwrap();
        // On a transition to state 1: 1 - 0.25 * (1 + 1) = 0.5
        assert!((r_beta.reward(0, 1, 0) - 0.5).abs() < 1e-15);
        // On a transition to state 0: 1 - 0.25 * (1 + 0) = 0.75
        assert!((r_beta.reward(0, 0, 0) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let mdp = mdp();
        let mut other_builder = CsrMdpBuilder::new();
        other_builder.begin_state();
        other_builder.add_action(&[(0, 1.0)]).unwrap();
        let other = other_builder.finish().unwrap();
        let ra = TransitionRewards::zeros(&mdp);
        let rb = TransitionRewards::zeros(&other);
        assert!(ra.affine_combination(&rb, 1.0, 1.0).is_err());
        assert!(!rb.matches(&mdp));
    }

    #[test]
    fn flat_constructors_validate_lengths() {
        let mdp = mdp();
        let flat =
            TransitionRewards::from_transition_values(&mdp, vec![1.0; mdp.num_transitions()])
                .unwrap();
        assert_eq!(flat.reward(1, 0, 0), 1.0);
        assert!(TransitionRewards::from_transition_values(&mdp, vec![1.0; 2]).is_err());

        let per_pair = TransitionRewards::from_pair_values(&mdp, &[0.5, 1.5, 2.5]).unwrap();
        // Pair 0 has two transitions, both carrying its pair value.
        assert_eq!(per_pair.reward(0, 0, 0), 0.5);
        assert_eq!(per_pair.reward(0, 0, 1), 0.5);
        assert!((per_pair.expected_reward(&mdp, 0, 0) - 0.5).abs() < 1e-15);
        assert_eq!(per_pair.reward(0, 1, 0), 1.5);
        assert_eq!(per_pair.reward(1, 0, 0), 2.5);
        assert!(TransitionRewards::from_pair_values(&mdp, &[1.0]).is_err());
    }

    #[test]
    fn rewards_from_identical_models_are_compatible() {
        // Two separately built but identical MDPs do not share the layout Arc,
        // yet their reward structures must still be considered aligned.
        let a = mdp();
        let b = mdp();
        let ra = TransitionRewards::zeros(&a);
        assert!(ra.matches(&b));
        let rb = TransitionRewards::zeros(&b);
        assert!(ra.sum(&rb).is_ok());
    }
}
