//! The MDP model `(S, A, P, s₀)`: one flat compressed-sparse-row arena.
//!
//! All transition data lives in the arena described in [`crate::csr`]; the
//! accessors below read its slices directly, so solvers, rewards and induced
//! Markov chains all walk the same layout.

use crate::{CsrLayout, MarkovChain, MdpError, PositionalStrategy, PROBABILITY_TOLERANCE};
use std::sync::Arc;

/// A finite-state Markov decision process `(S, A, P, s₀)`, stored as one flat
/// CSR transition arena: index arrays in a shared [`CsrLayout`],
/// probabilities in a single `Vec<f64>` aligned with `col`, and action names
/// interned into a deduplicated table.
///
/// States are `0..num_states()`. Every state has one or more named actions;
/// each action carries a probability distribution over successors. Rewards
/// are *not* stored in the model — the solver takes one expected reward per
/// state-action pair, indexed like the arena's pairs, which is what lets the
/// selfish-mining analysis reuse one model for the whole `r_β` family. Build
/// one with the streaming [`crate::CsrMdpBuilder`] or, from
/// already-assembled arrays, with [`Mdp::from_raw_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct Mdp {
    layout: Arc<CsrLayout>,
    /// Transition probability per arena slot, aligned with `layout.col()`.
    prob: Vec<f64>,
    /// Interned action-name table, shared by every arena over the layout.
    names: Arc<[String]>,
    /// Per-pair index into `names`, shared like `names`.
    name_of_pair: Arc<[u32]>,
    initial_state: usize,
}

impl Mdp {
    /// Assembles an arena from an already-validated layout plus the aligned
    /// probability buffer and interned action-name table.
    ///
    /// Every arena is assembled here: [`crate::CsrMdpBuilder::finish`] hands
    /// over its buffers, and parametric model families take the zero-rebuild
    /// path — the layout and the name table (and the `Arc`s they live
    /// behind) are shared across every instantiation, only the probability
    /// buffer is fresh. Shapes are
    /// checked here; *distribution* validity (rows summing to 1) is the
    /// caller's responsibility — run [`Mdp::validate`] when in doubt.
    /// Zero-probability transitions are allowed: a parametric arena keeps
    /// masked branches (e.g. `γ = 0` race outcomes) structurally and masks
    /// them numerically.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvariantViolation`] if `prob` or `name_of_pair`
    /// are not aligned with the layout or reference missing names, and
    /// [`MdpError::InvalidState`] for an out-of-range initial state.
    pub fn from_raw_parts(
        layout: Arc<CsrLayout>,
        prob: Vec<f64>,
        names: impl Into<Arc<[String]>>,
        name_of_pair: impl Into<Arc<[u32]>>,
        initial_state: usize,
    ) -> Result<Mdp, MdpError> {
        let (names, name_of_pair) = (names.into(), name_of_pair.into());
        if prob.len() != layout.num_transitions() {
            return Err(MdpError::InvariantViolation {
                detail: format!(
                    "probability buffer has {} entries, arena has {} transitions",
                    prob.len(),
                    layout.num_transitions()
                ),
            });
        }
        if name_of_pair.len() != layout.num_pairs() {
            return Err(MdpError::InvariantViolation {
                detail: format!(
                    "name table covers {} pairs, arena has {}",
                    name_of_pair.len(),
                    layout.num_pairs()
                ),
            });
        }
        if let Some(&id) = name_of_pair.iter().find(|&&id| id as usize >= names.len()) {
            return Err(MdpError::InvariantViolation {
                detail: format!(
                    "pair references action name {id}, table has {} entries",
                    names.len()
                ),
            });
        }
        if initial_state >= layout.num_states() {
            return Err(MdpError::InvalidState {
                state: initial_state,
                num_states: layout.num_states(),
            });
        }
        Ok(Mdp {
            layout,
            prob,
            names,
            name_of_pair,
            initial_state,
        })
    }

    /// Rewrites every transition probability in place: `weight(k)` is the new
    /// probability of arena transition `k` (the one targeting
    /// `layout.col()[k]`).
    ///
    /// The layout and action names are untouched, which is
    /// what lets a parametric model family re-instantiate an arena for new
    /// parameter values in one linear pass with no rebuild. The caller is
    /// responsible for keeping every per-pair distribution valid (summing to
    /// 1); [`Mdp::validate`] checks that invariant.
    pub fn reweight_in_place(&mut self, mut weight: impl FnMut(usize) -> f64) {
        for (k, p) in self.prob.iter_mut().enumerate() {
            *p = weight(k);
        }
        #[cfg(feature = "deep-checks")]
        debug_assert!(
            self.validate().is_ok(),
            "deep-checks: reweighted arena fails validation: {:?}",
            self.validate()
        );
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.layout.num_states()
    }

    /// The initial state `s₀`.
    pub fn initial_state(&self) -> usize {
        self.initial_state
    }

    /// Number of actions available in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn num_actions(&self, state: usize) -> usize {
        self.layout.num_actions(state)
    }

    /// Total number of state-action pairs.
    pub fn num_pairs(&self) -> usize {
        self.layout.num_pairs()
    }

    /// Total number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.layout.num_transitions()
    }

    /// The shared index arrays of the arena.
    pub fn layout(&self) -> &CsrLayout {
        &self.layout
    }

    /// A clone of the [`Arc`] holding the index arrays, for structures that
    /// must stay aligned with this arena.
    pub fn layout_arc(&self) -> Arc<CsrLayout> {
        Arc::clone(&self.layout)
    }

    /// The flat probability buffer, aligned with [`CsrLayout::col`].
    pub fn probabilities(&self) -> &[f64] {
        &self.prob
    }

    /// Expected one-step reward `Σ_{s'} P(s' | pair) · value` of arena pair
    /// `pair` when every one of its transitions earns `value`, summed over
    /// the pair's successors in arena order. This is how a per-pair reward
    /// table becomes the per-pair expectation the solver sweeps read; the
    /// probabilities need not sum to exactly 1, so the result is not always
    /// `value` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is out of bounds.
    pub fn expected_pair_reward(&self, pair: usize, value: f64) -> f64 {
        self.prob[self.layout.transition_range(pair)]
            .iter()
            .map(|&p| p * value)
            .sum()
    }

    /// Name of the `action`-th action of `state`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn action_name(&self, state: usize, action: usize) -> &str {
        &self.names[self.name_of_pair[self.layout.pair_index(state, action)] as usize]
    }

    /// Successors of the `action`-th action of `state` as parallel slices of
    /// (compact `u32`) targets and probabilities.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn successors(&self, state: usize, action: usize) -> (&[u32], &[f64]) {
        let range = self
            .layout
            .transition_range(self.layout.pair_index(state, action));
        (&self.layout.col()[range.clone()], &self.prob[range])
    }

    /// Finds the index of an action by name in the given state.
    pub fn find_action(&self, state: usize, name: &str) -> Option<usize> {
        if state >= self.num_states() {
            return None;
        }
        let pairs = self.layout.pair_range(state);
        self.name_of_pair[pairs]
            .iter()
            .position(|&id| self.names[id as usize] == name)
    }

    /// Checks basic sanity of the arena: a non-empty model, at least one
    /// action per state, targets in bounds, and validated distributions.
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`MdpError`] on the first violation found.
    pub fn validate(&self) -> Result<(), MdpError> {
        let n = self.num_states();
        if n == 0 {
            return Err(MdpError::EmptyModel);
        }
        for state in 0..n {
            if self.num_actions(state) == 0 {
                return Err(MdpError::NoActions { state });
            }
            for pair in self.layout.pair_range(state) {
                let range = self.layout.transition_range(pair);
                let cols = &self.layout.col()[range.clone()];
                let probs = &self.prob[range];
                let sum: f64 = probs.iter().sum();
                if (sum - 1.0).abs() > PROBABILITY_TOLERANCE || probs.iter().any(|&p| p < 0.0) {
                    return Err(MdpError::InvalidDistribution {
                        state,
                        action: self.names[self.name_of_pair[pair] as usize].clone(),
                        sum,
                    });
                }
                if let Some(&target) = cols.iter().find(|&&t| t as usize >= n) {
                    return Err(MdpError::InvalidState {
                        state: target as usize,
                        num_states: n,
                    });
                }
            }
        }
        Ok(())
    }

    /// The Markov chain induced by a positional strategy, extracted by copying
    /// the chosen row slices straight out of the arena (no per-row allocation,
    /// no re-sorting: arena rows are already sorted by successor). The chain
    /// constructor re-validates the assembled CSR arrays in one pass.
    ///
    /// Zero-probability transitions are dropped during the copy: arenas
    /// streamed through [`crate::CsrMdpBuilder`] never contain them, but
    /// parametric instantiations keep masked branches (e.g. `γ = 0` race
    /// outcomes) structurally, and those must not register as edges of the
    /// induced chain (they would corrupt its recurrence classification).
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidAction`] if the strategy selects an action
    /// that does not exist, a shape error if the strategy does not cover
    /// every state, and [`MdpError::InvalidDistribution`] (naming the chosen
    /// action) if a chosen row is not a probability distribution — possible
    /// for arenas from [`Mdp::from_raw_parts`] or [`Mdp::reweight_in_place`],
    /// which do not validate distributions.
    pub fn induced_chain(&self, strategy: &PositionalStrategy) -> Result<MarkovChain, MdpError> {
        let n = self.num_states();
        if strategy.num_states() != n {
            return Err(MdpError::RewardShapeMismatch {
                detail: format!(
                    "strategy covers {} states, MDP has {}",
                    strategy.num_states(),
                    n
                ),
            });
        }
        let mut nnz = 0;
        for state in 0..n {
            let action = strategy.action(state);
            if action >= self.num_actions(state) {
                return Err(MdpError::InvalidAction {
                    state,
                    action,
                    available: self.num_actions(state),
                });
            }
            nnz += self
                .layout
                .transition_range(self.layout.pair_index(state, action))
                .len();
        }
        let mut row_ptr: Vec<u32> = Vec::with_capacity(n + 1);
        let mut col: Vec<u32> = Vec::with_capacity(nnz);
        let mut prob = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for state in 0..n {
            let range = self
                .layout
                .transition_range(self.layout.pair_index(state, strategy.action(state)));
            for (&target, &p) in self.layout.col()[range.clone()]
                .iter()
                .zip(&self.prob[range])
            {
                if p > 0.0 {
                    col.push(target);
                    prob.push(p);
                }
            }
            // The chain's transition count is bounded by the arena's, which
            // the compact layout already proved fits in u32.
            row_ptr.push(col.len() as u32);
        }
        MarkovChain::from_csr_parts(row_ptr, col, prob, |state| {
            self.action_name(state, strategy.action(state)).to_string()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMdpBuilder;

    fn two_state_mdp() -> Mdp {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action("stay", &[(0, 1.0)]).unwrap();
        b.add_action("go", &[(1, 1.0)]).unwrap();
        b.begin_state();
        b.add_action("loop", &[(0, 0.25), (1, 0.75)]).unwrap();
        b.finish(0).unwrap()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let mdp = two_state_mdp();
        assert_eq!(mdp.num_states(), 2);
        assert_eq!(mdp.num_actions(0), 2);
        assert_eq!(mdp.num_actions(1), 1);
        assert_eq!(mdp.num_pairs(), 3);
        assert_eq!(mdp.num_transitions(), 4);
        assert_eq!(mdp.action_name(0, 1), "go");
        assert_eq!(mdp.find_action(1, "loop"), Some(0));
        assert_eq!(mdp.find_action(1, "missing"), None);
        assert_eq!(mdp.find_action(9, "loop"), None);
        assert_eq!(mdp.initial_state(), 0);
        assert!(mdp.validate().is_ok());
    }

    #[test]
    fn internals_are_one_flat_csr_arena() {
        let mdp = two_state_mdp();
        assert_eq!(mdp.layout().row_ptr(), &[0, 2, 3]);
        assert_eq!(mdp.layout().action_ptr(), &[0, 1, 2, 4]);
        assert_eq!(mdp.layout().col(), &[0, 1, 0, 1]);
        assert_eq!(mdp.probabilities(), &[1.0, 1.0, 0.25, 0.75]);
        assert_eq!(mdp.layout().num_transitions(), mdp.num_transitions());
    }

    #[test]
    fn builder_rejects_bad_distributions() {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        for transitions in [
            &[(0, 0.5)][..],
            &[(0, f64::NAN)][..],
            &[(0, f64::INFINITY)][..],
            &[(0, 1.5), (0, -0.5)][..],
        ] {
            assert!(matches!(
                b.add_action("bad", transitions),
                Err(MdpError::InvalidDistribution { .. })
            ));
        }
        // A rejected action leaves the builder untouched.
        assert_eq!(b.num_pairs(), 0);
        b.add_action("oob", &[(5, 1.0)]).unwrap();
        assert!(matches!(
            b.finish(0),
            Err(MdpError::InvalidState { state: 5, .. })
        ));
    }

    #[test]
    fn builder_rejects_deadlocks_and_bad_initial_state() {
        // A deadlock in a middle state is named by its index.
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action("a", &[(1, 1.0)]).unwrap();
        b.begin_state();
        b.begin_state();
        b.add_action("c", &[(0, 1.0)]).unwrap();
        assert!(matches!(b.finish(0), Err(MdpError::NoActions { state: 1 })));

        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action("a", &[(0, 1.0)]).unwrap();
        assert!(matches!(b.finish(3), Err(MdpError::InvalidState { .. })));

        assert!(matches!(
            CsrMdpBuilder::new().finish(0),
            Err(MdpError::EmptyModel)
        ));
    }

    #[test]
    fn duplicate_targets_are_merged() {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action("a", &[(0, 0.25), (0, 0.75)]).unwrap();
        let mdp = b.finish(0).unwrap();
        assert_eq!(mdp.successors(0, 0), (&[0u32][..], &[1.0f64][..]));
    }

    #[test]
    fn transitions_and_successors_agree() {
        // `successors` is a window onto the flat arena buffers.
        let mdp = two_state_mdp();
        let (cols, probs) = mdp.successors(1, 0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(probs, &[0.25, 0.75]);
        let range = mdp.layout().transition_range(mdp.layout().pair_index(1, 0));
        assert_eq!(cols, &mdp.layout().col()[range.clone()]);
        assert_eq!(probs, &mdp.probabilities()[range]);
    }

    #[test]
    fn induced_chain_follows_strategy() {
        let mdp = two_state_mdp();
        let stay = PositionalStrategy::new(vec![0, 0]);
        let chain = mdp.induced_chain(&stay).unwrap();
        assert_eq!(chain.successors(0), (&[0u32][..], &[1.0][..]));

        let go = PositionalStrategy::new(vec![1, 0]);
        let chain = mdp.induced_chain(&go).unwrap();
        assert_eq!(chain.successors(0), (&[1u32][..], &[1.0][..]));
        assert_eq!(chain.successors(1), (&[0u32, 1][..], &[0.25, 0.75][..]));
    }

    #[test]
    fn expected_pair_reward_weights_the_pair_value_by_probability() {
        let mdp = two_state_mdp();
        let pair = mdp.layout().pair_index(1, 0);
        assert_eq!(mdp.expected_pair_reward(pair, 2.0), 0.25 * 2.0 + 0.75 * 2.0);
        assert_eq!(mdp.expected_pair_reward(0, -1.5), -1.5);
    }

    #[test]
    fn induced_chain_rejects_invalid_strategy() {
        let mdp = two_state_mdp();
        let bad_action = PositionalStrategy::new(vec![5, 0]);
        assert!(matches!(
            mdp.induced_chain(&bad_action),
            Err(MdpError::InvalidAction { .. })
        ));
        let bad_len = PositionalStrategy::new(vec![0]);
        assert!(mdp.induced_chain(&bad_len).is_err());
        // Raw parts are not validated; the chain names the chosen action
        // whose row does not sum to 1.
        let halved = Mdp::from_raw_parts(
            mdp.layout_arc(),
            vec![1.0, 0.5, 0.25, 0.75],
            vec!["stay".to_string(), "go".to_string(), "loop".to_string()],
            vec![0, 1, 2],
            0,
        )
        .unwrap();
        let go = PositionalStrategy::new(vec![1, 0]);
        assert!(matches!(
            halved.induced_chain(&go),
            Err(MdpError::InvalidDistribution { state: 0, action, sum })
                if action == "go" && sum == 0.5
        ));
    }

    #[test]
    fn add_state_extends_the_model() {
        // States are opened in index order; an action may point at a state
        // that is only opened later.
        let mut b = CsrMdpBuilder::new();
        assert_eq!(b.begin_state(), 0);
        b.add_action("a", &[(1, 1.0)]).unwrap();
        assert_eq!(b.begin_state(), 1);
        b.add_action("b", &[(0, 1.0)]).unwrap();
        assert_eq!(b.num_states(), 2);
        assert_eq!(b.finish(0).unwrap().num_states(), 2);
    }

    #[test]
    fn nested_and_streaming_builders_produce_identical_models() {
        // The raw-parts path (used by the parametric selfish-mining arena)
        // and the streaming builder assemble the same arena from the same
        // per-state action lists.
        let layout =
            CsrLayout::from_raw_parts(vec![0, 2, 3], vec![0, 1, 2, 4], vec![0, 1, 0, 1]).unwrap();
        let assembled = Mdp::from_raw_parts(
            Arc::new(layout),
            vec![1.0, 1.0, 0.25, 0.75],
            vec!["stay".to_string(), "go".to_string(), "loop".to_string()],
            vec![0, 1, 2],
            0,
        )
        .unwrap();
        assert_eq!(assembled, two_state_mdp());
    }
}
