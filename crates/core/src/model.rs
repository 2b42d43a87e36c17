//! The selfish-mining MDP at concrete parameters `(p, γ)`.
//!
//! A [`SelfishMiningModel`] is what [`crate::ParametricModel::instantiate`]
//! returns for one point of the parameter square:
//!
//! * an [`sm_mdp::Mdp`] whose states are indices into the reachable state
//!   list of the family's breadth-first exploration,
//! * the two base reward structures `r_A` (adversarial blocks finalized) and
//!   `r_H` (honest blocks finalized) of Section 3.3, stored once per
//!   state-action pair as the pair's expected block count, indexed by arena
//!   pair offset.
//!
//! Every consumer — the relative-value-iteration sweeps, the revenue
//! evaluation on induced chains and the certificate audit — reads a pair's
//! reward only through its expectation `Σ_{s'} P(s'|s,a) · r` over the
//! pair's successors ([`sm_mdp::Mdp::expected_pair_reward`]), which is
//! formed on the fly from the per-pair value; no per-transition reward
//! buffer is ever built.

use crate::{AttackParams, AttackScenario, SelfishMiningError, SmAction, SmState};
use sm_mdp::{Mdp, MdpError, PositionalStrategy};
use std::sync::Arc;

/// The selfish-mining MDP at concrete parameters together with its reward
/// structures and the mapping back to structured states. Obtain one with
/// [`crate::ParametricModel::build`] (or
/// [`crate::ParametricModel::build_scenario`]) followed by
/// [`crate::ParametricModel::instantiate`].
///
/// The state and action tables are behind [`Arc`]s: every `(p, γ)`
/// instantiation of one [`crate::ParametricModel`] shares them (the reachable
/// structure depends only on `(d, f, l)`), so cloning or re-instantiating a
/// model never copies the structured state space.
#[derive(Debug, Clone)]
pub struct SelfishMiningModel {
    pub(crate) params: AttackParams,
    pub(crate) scenario: AttackScenario,
    pub(crate) mdp: Mdp,
    pub(crate) states: Arc<Vec<SmState>>,
    pub(crate) actions: Arc<Vec<Vec<SmAction>>>,
    /// `r_A`: expected adversarial blocks finalized, one entry per pair.
    pub(crate) adversary_rewards: Vec<f64>,
    /// `r_H`: expected honest blocks finalized, one entry per pair.
    pub(crate) honest_rewards: Vec<f64>,
}

impl SelfishMiningModel {
    /// The parameters the model was built for.
    pub fn params(&self) -> &AttackParams {
        &self.params
    }

    /// The attack scenario the model was built for
    /// ([`AttackScenario::Optimal`] for [`crate::ParametricModel::build`]).
    pub fn scenario(&self) -> AttackScenario {
        self.scenario
    }

    /// The underlying MDP.
    pub fn mdp(&self) -> &Mdp {
        &self.mdp
    }

    /// Number of reachable states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The structured state corresponding to an MDP state index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn state(&self, index: usize) -> &SmState {
        &self.states[index]
    }

    /// The structured action corresponding to an MDP `(state, action)` pair.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn action(&self, state: usize, action: usize) -> &SmAction {
        &self.actions[state][action]
    }

    /// The actions available in an MDP state, in the same order as the MDP's
    /// action indices.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn actions_of(&self, state: usize) -> &[SmAction] {
        &self.actions[state]
    }

    /// The full structured state table, in MDP index order.
    pub(crate) fn states_slice(&self) -> &[SmState] {
        &self.states
    }

    /// The full per-state action table, in MDP index order.
    pub(crate) fn actions_slice(&self) -> &[Vec<SmAction>] {
        &self.actions
    }

    /// Reward structure `r_A`: expected number of adversary blocks finalized,
    /// one entry per state-action pair in arena pair order.
    pub fn adversary_rewards(&self) -> &[f64] {
        &self.adversary_rewards
    }

    /// Reward structure `r_H`: expected number of honest blocks finalized,
    /// one entry per state-action pair in arena pair order.
    pub fn honest_rewards(&self) -> &[f64] {
        &self.honest_rewards
    }

    /// Bytes this instantiation holds on its own, counted by length: the
    /// probability buffer and both per-pair reward tables. The layout, the
    /// action-name table and the state and action tables are shared with the
    /// family and every other instantiation of it, so they are not counted.
    pub fn resident_bytes(&self) -> usize {
        let f64_bytes = std::mem::size_of::<f64>();
        f64_bytes
            * (self.mdp.probabilities().len()
                + self.adversary_rewards.len()
                + self.honest_rewards.len())
    }

    /// The expected one-step reward of `r_β = r_A − β · (r_A + r_H)`
    /// (Section 3.3) for every state-action pair, in arena pair order — the
    /// reward input of one inner mean-payoff solve.
    ///
    /// Each pair's `r_β` value is formed as `1·a + (−β)·(1·a + 1·h)` and
    /// weighted by the pair's successor probabilities
    /// ([`Mdp::expected_pair_reward`]), the f64 operations of forming `r_β`
    /// transition by transition and taking its expectation, so the result
    /// is bit-identical to that per-transition construction.
    pub fn beta_rewards(&self, beta: f64) -> Vec<f64> {
        self.adversary_rewards
            .iter()
            .zip(&self.honest_rewards)
            .enumerate()
            .map(|(pair, (&a, &h))| {
                let value = 1.0 * a + (-beta) * (1.0 * a + 1.0 * h);
                self.mdp.expected_pair_reward(pair, value)
            })
            .collect()
    }

    /// Per-state expected `(r_A, r_H)` rewards of the Markov chain a
    /// positional strategy induces: each state's entry is the expectation
    /// of its chosen pair.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the strategy does not cover every state and
    /// [`MdpError::InvalidAction`] if it selects a non-existent action.
    pub fn strategy_rewards(
        &self,
        strategy: &PositionalStrategy,
    ) -> Result<(Vec<f64>, Vec<f64>), SelfishMiningError> {
        let n = self.mdp.num_states();
        if strategy.num_states() != n {
            return Err(MdpError::RewardShapeMismatch {
                detail: format!(
                    "strategy covers {} states, MDP has {n}",
                    strategy.num_states()
                ),
            }
            .into());
        }
        let (mdp, layout) = (&self.mdp, self.mdp.layout());
        let mut adversary = Vec::with_capacity(n);
        let mut honest = Vec::with_capacity(n);
        for state in 0..n {
            let (action, available) = (strategy.action(state), layout.num_actions(state));
            if action >= available {
                return Err(MdpError::InvalidAction {
                    state,
                    action,
                    available,
                }
                .into());
            }
            let pair = layout.pair_index(state, action);
            adversary.push(mdp.expected_pair_reward(pair, self.adversary_rewards[pair]));
            honest.push(mdp.expected_pair_reward(pair, self.honest_rewards[pair]));
        }
        Ok((adversary, honest))
    }

    /// The expected relative revenue of a *fixed* positional strategy,
    /// computed from the gains of the induced chain:
    /// `ERRev(σ) = g_A(σ) / (g_A(σ) + g_H(σ))`.
    ///
    /// The gains are evaluated with sparse iterative sweeps — one fused pass
    /// for both reward functions ([`sm_mdp::iterative_gains`]) — so that
    /// the evaluation scales to the larger attack configurations, where dense
    /// policy evaluation would be prohibitive.
    ///
    /// # Errors
    ///
    /// Propagates policy-evaluation errors.
    pub fn expected_relative_revenue(
        &self,
        strategy: &PositionalStrategy,
    ) -> Result<f64, SelfishMiningError> {
        self.expected_relative_revenue_seeded_with(
            strategy,
            None,
            sm_mdp::SolverParallelism::serial(),
        )
        .map(|(revenue, _)| revenue)
    }

    /// [`SelfishMiningModel::expected_relative_revenue`] warm-started from
    /// the bias vectors of a previous evaluation (on a similar strategy
    /// and/or neighbouring parameters), returning the converged bias vectors
    /// for the next call. This is the evaluation hot path of the sweep
    /// engine; any seed is *valid* (mis-shaped ones are simply ignored), it
    /// only affects the sweep count. The chain sweeps run in row blocks
    /// over `parallelism` threads
    /// ([`sm_mdp::iterative_gains`]): the returned revenue and
    /// bias vectors are bit-identical for any thread count, the knob only
    /// trades wall-clock time for cores.
    ///
    /// # Errors
    ///
    /// Propagates policy-evaluation errors.
    pub fn expected_relative_revenue_seeded_with(
        &self,
        strategy: &PositionalStrategy,
        seed: Option<&[Vec<f64>]>,
        parallelism: sm_mdp::SolverParallelism,
    ) -> Result<(f64, Vec<Vec<f64>>), SelfishMiningError> {
        let chain = self.mdp.induced_chain(strategy)?;
        let (r_adv, r_hon) = self.strategy_rewards(strategy)?;
        let (gains, bias) = sm_mdp::iterative_gains(&chain, &[&r_adv, &r_hon], seed, parallelism)?;
        let (adv, hon) = (gains[0], gains[1]);
        if adv + hon <= 0.0 {
            // Blocks are finalized with positive rate under every strategy
            // (honest miners alone guarantee it), so this indicates a
            // numerical problem rather than a legitimate value.
            return Err(SelfishMiningError::DegenerateRevenue {
                adversary_gain: adv,
                honest_gain: hon,
            });
        }
        Ok((adv / (adv + hon), bias))
    }

    /// Renders a positional strategy as a list of `(state, action)` pairs in
    /// the structured vocabulary of the attack, restricted to states where the
    /// strategy chooses something other than `mine`. Useful for inspecting
    /// computed attacks.
    ///
    /// # Errors
    ///
    /// Returns [`SelfishMiningError::InvalidParameter`] if the strategy does
    /// not cover every model state or selects an action index outside a
    /// state's action list. (The historical version panicked on a
    /// too-short strategy — a panic reachable from user-supplied data.)
    pub fn describe_strategy(
        &self,
        strategy: &PositionalStrategy,
    ) -> Result<Vec<(String, String)>, SelfishMiningError> {
        if strategy.num_states() != self.num_states() {
            return Err(SelfishMiningError::InvalidParameter {
                name: "strategy",
                constraint: "must cover every state of the model it describes",
            });
        }
        let mut releases = Vec::new();
        for s in 0..self.num_states() {
            let action_idx = strategy.action(s);
            let Some(action) = self.actions[s].get(action_idx) else {
                return Err(SelfishMiningError::InvalidParameter {
                    name: "strategy",
                    constraint: "selects an action index outside the state's action list",
                });
            };
            if action.is_release() {
                releases.push((self.states[s].to_string(), action.to_string()));
            }
        }
        Ok(releases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParametricModel, Phase};

    fn build(p: f64, gamma: f64, d: usize, f: usize, l: usize) -> SelfishMiningModel {
        ParametricModel::build(d, f, l)
            .unwrap()
            .instantiate(p, gamma)
            .unwrap()
    }

    #[test]
    fn smallest_model_has_expected_structure() {
        let model = build(0.3, 0.5, 1, 1, 2);
        // States: forks ∈ {0,1,2}, phases ∈ {mining, honest, adversary}; not
        // every combination is reachable but the model must stay within the
        // product bound.
        assert!(model.num_states() <= 9);
        assert!(model.num_states() >= 5);
        // State 0, the MDP's start state, is the paper's initial state.
        assert_eq!(model.state(0), &SmState::initial(model.params()));
        // Every state's action list matches the MDP's.
        for s in 0..model.num_states() {
            assert_eq!(model.actions_of(s).len(), model.mdp().num_actions(s));
        }
    }

    #[test]
    fn model_size_matches_paper_order_of_magnitude_for_small_configs() {
        let model = build(0.3, 0.5, 2, 1, 4);
        assert!(model.num_states() < 200, "got {}", model.num_states());
        let model = build(0.3, 0.5, 2, 2, 4);
        assert!(model.num_states() < 4000, "got {}", model.num_states());
    }

    #[test]
    fn rewards_are_nonnegative_and_bounded_by_l() {
        let model = build(0.3, 0.5, 2, 2, 3);
        let mdp = model.mdp();
        assert_eq!(model.adversary_rewards().len(), mdp.num_pairs());
        assert_eq!(model.honest_rewards().len(), mdp.num_pairs());
        for pair in 0..mdp.num_pairs() {
            let adv = mdp.expected_pair_reward(pair, model.adversary_rewards()[pair]);
            let hon = mdp.expected_pair_reward(pair, model.honest_rewards()[pair]);
            assert!(adv >= 0.0 && hon >= 0.0);
            assert!(adv + hon <= model.params().max_fork_length as f64 + 1.0);
        }
    }

    #[test]
    fn beta_rewards_interpolate_between_extremes() {
        let model = build(0.3, 0.5, 1, 1, 2);
        let mdp = model.mdp();
        let r0 = model.beta_rewards(0.0);
        let r1 = model.beta_rewards(1.0);
        assert_eq!(r0.len(), mdp.num_pairs());
        for pair in 0..mdp.num_pairs() {
            let adv = mdp.expected_pair_reward(pair, model.adversary_rewards()[pair]);
            let hon = mdp.expected_pair_reward(pair, model.honest_rewards()[pair]);
            assert!((r0[pair] - adv).abs() < 1e-12);
            assert!((r1[pair] + hon).abs() < 1e-12);
        }
    }

    #[test]
    fn strategy_rewards_follow_the_chosen_pairs() {
        let model = build(0.3, 0.5, 1, 1, 2);
        let mdp = model.mdp();
        let mut strategy = PositionalStrategy::uniform_first_action(model.num_states());
        let last = model.num_states() - 1;
        strategy.set_action(last, mdp.num_actions(last) - 1);
        let (adversary, honest) = model.strategy_rewards(&strategy).unwrap();
        for s in 0..model.num_states() {
            let pair = mdp.layout().pair_index(s, strategy.action(s));
            let expected = |rewards: &[f64]| mdp.expected_pair_reward(pair, rewards[pair]);
            assert_eq!(
                adversary[s].to_bits(),
                expected(model.adversary_rewards()).to_bits()
            );
            assert_eq!(
                honest[s].to_bits(),
                expected(model.honest_rewards()).to_bits()
            );
        }
        strategy.set_action(0, 99);
        assert!(model.strategy_rewards(&strategy).is_err());
        let short = PositionalStrategy::uniform_first_action(last);
        assert!(model.strategy_rewards(&short).is_err());
    }

    #[test]
    fn resident_bytes_count_probabilities_and_both_pair_tables() {
        // d = 2, f = 1, l = 4: 148 states, 468 pairs, 636 transitions — one
        // probability per transition and two rewards per pair, 8 bytes each.
        let model = build(0.3, 0.5, 2, 1, 4);
        assert_eq!(model.num_states(), 148);
        assert_eq!(model.mdp().num_pairs(), 468);
        assert_eq!(model.mdp().num_transitions(), 636);
        assert_eq!(model.resident_bytes(), 8 * (636 + 2 * 468));
    }

    #[test]
    fn always_mine_strategy_has_revenue_between_zero_and_one() {
        let model = build(0.25, 0.5, 2, 1, 3);
        // The all-first-action strategy is "always mine" because `mine` is
        // always the first available action.
        let mine_everywhere = PositionalStrategy::uniform_first_action(model.num_states());
        for s in 0..model.num_states() {
            assert_eq!(model.action(s, 0), &SmAction::Mine);
        }
        let errev = model.expected_relative_revenue(&mine_everywhere).unwrap();
        assert!((0.0..=1.0).contains(&errev), "errev = {errev}");
    }

    #[test]
    fn honest_and_adversary_phases_are_reachable() {
        let model = build(0.3, 0.5, 2, 1, 3);
        let mut phases = std::collections::HashSet::new();
        for s in 0..model.num_states() {
            phases.insert(model.state(s).phase);
        }
        assert!(phases.contains(&Phase::Mining));
        assert!(phases.contains(&Phase::HonestFound));
        assert!(phases.contains(&Phase::AdversaryFound));
    }

    #[test]
    fn describe_strategy_lists_only_releases() {
        let model = build(0.3, 0.5, 1, 1, 2);
        let mut strategy = PositionalStrategy::uniform_first_action(model.num_states());
        // Force a release wherever one is available.
        for s in 0..model.num_states() {
            if model.actions_of(s).len() > 1 {
                strategy.set_action(s, 1);
            }
        }
        let description = model.describe_strategy(&strategy).unwrap();
        assert!(!description.is_empty());
        assert!(description.iter().all(|(_, a)| a.starts_with("release")));
    }

    #[test]
    fn describe_strategy_rejects_misshapen_strategies() {
        // Regression: both misshapes used to panic (short strategies via
        // indexing) or be skipped silently (out-of-range action indices).
        let model = build(0.3, 0.5, 1, 1, 2);
        let short = PositionalStrategy::uniform_first_action(model.num_states() - 1);
        assert!(matches!(
            model.describe_strategy(&short),
            Err(SelfishMiningError::InvalidParameter {
                name: "strategy",
                ..
            })
        ));
        let mut out_of_range = PositionalStrategy::uniform_first_action(model.num_states());
        out_of_range.set_action(0, 99);
        assert!(matches!(
            model.describe_strategy(&out_of_range),
            Err(SelfishMiningError::InvalidParameter {
                name: "strategy",
                ..
            })
        ));
    }

    #[test]
    fn scenario_models_restrict_the_optimal_model() {
        let build_scenario = |scenario| {
            ParametricModel::build_scenario(scenario, 2, 1, 4)
                .unwrap()
                .instantiate(0.3, 0.5)
                .unwrap()
        };
        let optimal = build(0.3, 0.5, 2, 1, 4);
        assert_eq!(optimal.scenario(), AttackScenario::Optimal);
        for scenario in [
            AttackScenario::LeadStubborn,
            AttackScenario::EqualForkStubborn,
            AttackScenario::TrailStubborn { lag: 0 },
        ] {
            let restricted = build_scenario(scenario);
            assert_eq!(restricted.scenario(), scenario);
            assert!(restricted.num_states() <= optimal.num_states());
            assert!(restricted.mdp().num_pairs() <= optimal.mdp().num_pairs());
            restricted.mdp().validate().unwrap();
        }
        // The honest scenario is a tiny degenerate chain.
        let honest = build_scenario(AttackScenario::HonestMining);
        assert!(honest.num_states() < optimal.num_states() / 2);
        honest.mdp().validate().unwrap();
    }
}
