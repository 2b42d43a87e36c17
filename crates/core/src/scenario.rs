//! Pluggable attack scenarios: restricted-action (and restricted-mining)
//! variants of the selfish-mining MDP.
//!
//! The paper's model optimizes over *every* admissible withholding behaviour.
//! An [`AttackScenario`] carves a sub-family out of that space: it defines
//! the admissible action set per state (a filter over
//! [`crate::available_actions`]) and, optionally, a transition filter
//! restricting which block positions the adversary mines on. The whole
//! solve → export → simulate → certify pipeline is generic over the
//! scenario: [`crate::ParametricModel::build_scenario`] constructs
//! per-scenario arenas, the sweep engine fans `(scenario, d, f) × γ × p`
//! jobs over its worker pool, and the conformance subsystem witnesses each
//! scenario's certified `[β_low, β_up]` bracket with a Monte-Carlo replay of
//! the scenario's ε-optimal strategy.
//!
//! # The certification argument under restriction
//!
//! Every scenario except [`AttackScenario::HonestMining`] is a *pure action
//! restriction*: it removes actions from `A(s)` and leaves the transition
//! function untouched ([`AttackScenario::is_action_restriction`]). The
//! restricted MDP is therefore a sub-MDP of the optimal one, every strategy
//! of the restricted model is a strategy of the full model, and the
//! restricted optimum is dominated by the full optimum:
//! `ERRev*_scenario ≤ ERRev*_optimal`. Algorithm 1 applies verbatim to the
//! sub-MDP (its correctness only needs a finite MDP with at least one action
//! per state, which the scenario contract guarantees), so the certified
//! brackets of a stubborn scenario and of the optimal scenario satisfy
//! `β_low(scenario) ≤ β_up(optimal)` up to solver precision — a property the
//! test suite checks across a seeded grid.
//!
//! `HonestMining` additionally filters the *mining* transition (the
//! adversary only mines on the tip, `σ = 1`), which makes it a different —
//! degenerate — system rather than a sub-MDP: its certified revenue is the
//! proportional share `p`, which is what makes it the sanity anchor of the
//! scenario matrix.

use crate::{available_actions, AttackParams, Phase, SmAction, SmState};
use sm_chain::{ChallengeVisibility, ConsensusBackend};
use std::fmt;

/// Scope of a certified `[β_low, β_up]` bracket under a given consensus
/// backend — the model-layer consumption of the backend-declared
/// [`ChallengeVisibility`] capability.
///
/// The solver optimises over *memoryless* strategies, which is exhaustive
/// when challenges are unpredictable (the adversary learns nothing about
/// future lotteries, so the MDP state is a sufficient statistic). Under a
/// predictable schedule (epoch-based stake lotteries, self-advancing VDF
/// beacons) the adversary can condition on future lottery outcomes — a
/// strategy space the memoryless search does not cover — so the certified
/// `β_up` is an optimum over a sub-family only. The *lower* bound and the
/// witnessed strategy's revenue bracket remain valid under every backend:
/// they are statements about one concrete strategy, not about a supremum.
/// See the "Multi-backend conformance" section of EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CertificateScope {
    /// Both certificate ends bind: `β_up` is an upper bound over the full
    /// admissible strategy space (unpredictable challenges).
    #[default]
    TwoSided,
    /// Only `β_low` (and the witnessed strategy's bracket) binds: a
    /// predictable challenge schedule admits planning-ahead strategies the
    /// memoryless solver does not search, so `β_up` is certified only over
    /// memoryless adversaries.
    LowerBoundOnly,
}

impl CertificateScope {
    /// The scope of certificates witnessed against `backend`.
    pub fn for_backend(backend: ConsensusBackend) -> CertificateScope {
        match backend.challenge_visibility() {
            ChallengeVisibility::Unpredictable => CertificateScope::TwoSided,
            ChallengeVisibility::Predictable => CertificateScope::LowerBoundOnly,
        }
    }

    /// A stable label used in reports and the service wire format.
    pub fn label(&self) -> &'static str {
        match self {
            CertificateScope::TwoSided => "two-sided",
            CertificateScope::LowerBoundOnly => "lower-bound-only",
        }
    }
}

impl fmt::Display for CertificateScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A restricted-action attack scenario of the selfish-mining MDP.
///
/// The default scenario is [`AttackScenario::Optimal`] — the unrestricted
/// model of the paper; every pre-scenario API is equivalent to passing it
/// explicitly.
///
/// # Example
///
/// ```
/// use selfish_mining::{AttackScenario, ParametricModel};
///
/// # fn main() -> Result<(), selfish_mining::SelfishMiningError> {
/// let optimal = ParametricModel::build_scenario(AttackScenario::Optimal, 2, 1, 4)?;
/// let stubborn = ParametricModel::build_scenario(AttackScenario::LeadStubborn, 2, 1, 4)?
///     .instantiate(0.3, 0.5)?;
/// // A restriction never enlarges the reachable space.
/// assert!(stubborn.num_states() <= optimal.num_states());
/// assert_eq!(stubborn.scenario(), AttackScenario::LeadStubborn);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AttackScenario {
    /// The unrestricted model of the paper: every admissible release is
    /// offered, the adversary mines on every open position.
    #[default]
    Optimal,
    /// The degenerate honest-behaviour scenario: the adversary mines only on
    /// the public tip (`σ = 1`) and must publish each block it finds
    /// immediately (the full tip fork, nothing else is admissible). Its
    /// certified revenue is the proportional share `p` — the sanity anchor
    /// of the scenario matrix.
    HonestMining,
    /// Lead-stubborn withholding: the adversary publishes only to *match* a
    /// freshly found honest block — admissible releases exist solely in
    /// [`Phase::HonestFound`] states and have `length == depth` (a `γ` tie
    /// race) — and stays silent on its own block finds, keeping the rest of
    /// its lead private instead of ever overriding the public chain (the
    /// restricted-action analogue of Nayak et al.'s lead-stubborn miner).
    LeadStubborn,
    /// Equal-fork-stubborn withholding: the adversary refuses tie races —
    /// in a [`Phase::HonestFound`] state only strictly winning releases
    /// (`length > depth`) are admissible, so the switching probability `γ`
    /// never decides an outcome in its favour.
    EqualForkStubborn,
    /// Trail-stubborn withholding with lag `k`: the adversary keeps forks
    /// rooted arbitrarily deep but only ever publishes a fork whose root
    /// trails the public tip by at most `k` blocks (root depth ≤ `k + 1`);
    /// deeper reorganisations are mined stubbornly and never attempted.
    /// `TrailStubborn { lag: d − 1 }` admits every release and coincides
    /// with [`AttackScenario::Optimal`].
    TrailStubborn {
        /// Maximal trail `k ≥ 0` behind the tip at which a fork may still be
        /// published.
        lag: usize,
    },
}

impl AttackScenario {
    /// A stable, human-readable label used in reports and table names.
    pub fn label(&self) -> String {
        match self {
            AttackScenario::Optimal => "optimal".to_string(),
            AttackScenario::HonestMining => "honest-mining".to_string(),
            AttackScenario::LeadStubborn => "lead-stubborn".to_string(),
            AttackScenario::EqualForkStubborn => "equal-fork-stubborn".to_string(),
            AttackScenario::TrailStubborn { lag } => format!("trail-stubborn({lag})"),
        }
    }

    /// Parses a scenario from its [`AttackScenario::label`] string — the
    /// inverse of `label` for every representable scenario, so labels can
    /// round-trip through reports and the query service's JSONL requests.
    ///
    /// Returns `None` for anything that is not exactly a label this crate
    /// emits (including a malformed `trail-stubborn(..)` lag).
    ///
    /// # Example
    ///
    /// ```
    /// use selfish_mining::AttackScenario;
    ///
    /// assert_eq!(
    ///     AttackScenario::from_label("lead-stubborn"),
    ///     Some(AttackScenario::LeadStubborn)
    /// );
    /// assert_eq!(
    ///     AttackScenario::from_label("trail-stubborn(2)"),
    ///     Some(AttackScenario::TrailStubborn { lag: 2 })
    /// );
    /// assert_eq!(AttackScenario::from_label("evil"), None);
    /// ```
    pub fn from_label(label: &str) -> Option<AttackScenario> {
        match label {
            "optimal" => Some(AttackScenario::Optimal),
            "honest-mining" => Some(AttackScenario::HonestMining),
            "lead-stubborn" => Some(AttackScenario::LeadStubborn),
            "equal-fork-stubborn" => Some(AttackScenario::EqualForkStubborn),
            other => {
                let lag = other
                    .strip_prefix("trail-stubborn(")?
                    .strip_suffix(')')?
                    .parse::<usize>()
                    .ok()?;
                Some(AttackScenario::TrailStubborn { lag })
            }
        }
    }

    /// The scenario family shipped with the crate, in report order: the
    /// optimal scenario, the three stubborn variants (trail with lag 0), and
    /// the honest sanity scenario.
    pub fn default_family() -> Vec<AttackScenario> {
        vec![
            AttackScenario::Optimal,
            AttackScenario::LeadStubborn,
            AttackScenario::EqualForkStubborn,
            AttackScenario::TrailStubborn { lag: 0 },
            AttackScenario::HonestMining,
        ]
    }

    /// Whether the scenario is a *pure action restriction* of the optimal
    /// model: a filter over [`available_actions`] that leaves the transition
    /// function untouched. For such scenarios the certified optimum is
    /// dominated by the optimal scenario's (see the module docs); only
    /// [`AttackScenario::HonestMining`] — which also restricts mining — is
    /// not of this kind.
    pub fn is_action_restriction(&self) -> bool {
        !matches!(self, AttackScenario::HonestMining)
    }

    /// Whether the scenario restricts the adversary's mining to the public
    /// tip (`σ = 1`). True only for [`AttackScenario::HonestMining`]; the
    /// simulator mirrors this through its `MiningRegime::TipOnly`.
    pub fn restricts_mining_to_tip(&self) -> bool {
        matches!(self, AttackScenario::HonestMining)
    }

    /// Whether the adversary mines on positions rooted at the given depth
    /// (1-based) under this scenario — the transition filter applied to the
    /// `mine` action's outcome split.
    pub fn admits_mining_depth(&self, depth: usize) -> bool {
        match self {
            AttackScenario::HonestMining => depth == 1,
            _ => true,
        }
    }

    /// Whether `action` is admissible in `state` under this scenario.
    ///
    /// The contract every scenario upholds: at least one *available* action
    /// (see [`available_actions`]) is admitted in every state, so scenario
    /// MDPs never have action-less states. (The solvers additionally fail
    /// with a typed `NoActions` error if a custom variant ever violated it.)
    pub fn admits(&self, params: &AttackParams, state: &SmState, action: &SmAction) -> bool {
        match self {
            AttackScenario::Optimal => true,
            AttackScenario::HonestMining => match action {
                // Honest behaviour never withholds: in an `AdversaryFound`
                // state with a tip fork the only admissible action is its
                // full, immediate release.
                SmAction::Mine => {
                    state.phase != Phase::AdversaryFound || state.fork_length(params, 1, 1) == 0
                }
                SmAction::Release {
                    depth,
                    fork,
                    length,
                } => {
                    state.phase == Phase::AdversaryFound
                        && *depth == 1
                        && *fork == 1
                        && *length == state.fork_length(params, 1, 1) as usize
                }
            },
            AttackScenario::LeadStubborn => match action {
                SmAction::Mine => true,
                // Matching only: a tie race against a pending honest block.
                // In an AdversaryFound state a `length == depth` release has
                // no pending block to tie with — it would orphan `depth − 1`
                // public blocks outright, i.e. an override — so lead-stubborn
                // admits no releases there at all.
                SmAction::Release { depth, length, .. } => {
                    state.phase == Phase::HonestFound && length == depth
                }
            },
            AttackScenario::EqualForkStubborn => match action {
                SmAction::Mine => true,
                SmAction::Release { depth, length, .. } => {
                    state.phase == Phase::AdversaryFound || length > depth
                }
            },
            AttackScenario::TrailStubborn { lag } => match action {
                SmAction::Mine => true,
                SmAction::Release { depth, .. } => *depth <= lag.saturating_add(1),
            },
        }
    }

    /// The admissible action set of `state` under this scenario, in the same
    /// order as [`available_actions`] (which the [`AttackScenario::Optimal`]
    /// scenario returns unchanged).
    ///
    /// # Example
    ///
    /// ```
    /// use selfish_mining::{AttackParams, AttackScenario, Phase, SmState};
    ///
    /// let params = AttackParams::new(0.3, 0.5, 1, 1, 4).unwrap();
    /// let mut state = SmState::initial(&params);
    /// state.phase = Phase::HonestFound;
    /// *state.fork_length_mut(&params, 1, 1) = 3;
    /// let optimal = AttackScenario::Optimal.admissible_actions(&params, &state);
    /// let stubborn = AttackScenario::LeadStubborn.admissible_actions(&params, &state);
    /// // Lead-stubborn keeps `mine` and the tie release only.
    /// assert!(stubborn.len() < optimal.len());
    /// assert_eq!(stubborn.len(), 2);
    /// ```
    pub fn admissible_actions(&self, params: &AttackParams, state: &SmState) -> Vec<SmAction> {
        let mut actions = available_actions(params, state);
        if !matches!(self, AttackScenario::Optimal) {
            actions.retain(|action| self.admits(params, state, action));
        }
        debug_assert!(
            !actions.is_empty(),
            "scenario {self} admits no action in state {state}"
        );
        actions
    }

    /// The number of block positions the adversary mines on in `state` under
    /// this scenario — [`SmState::mining_slots`] restricted to the depths
    /// the scenario admits ([`AttackScenario::admits_mining_depth`]). Always
    /// at least 1 (depth 1 is admitted by every scenario and contributes a
    /// slot whether or not a tip fork exists), which keeps the mining split
    /// well defined on the whole parameter square including `p = 1`.
    pub fn mining_slots(&self, params: &AttackParams, state: &SmState) -> usize {
        (1..=params.depth)
            .filter(|&depth| self.admits_mining_depth(depth))
            .map(|depth| state.mining_slots_at_depth(params, depth))
            .sum()
    }

    /// A stable per-scenario salt folded into the conformance seed streams so
    /// that no two scenarios share a Monte-Carlo replica stream at the same
    /// grid coordinates. [`AttackScenario::Optimal`] maps to 0 and is — by
    /// convention of the conformance subsystem — not folded in at all, which
    /// keeps the historical (pre-scenario) replica streams unchanged.
    pub fn seed_salt(&self) -> u64 {
        match self {
            AttackScenario::Optimal => 0,
            AttackScenario::HonestMining => 1,
            AttackScenario::LeadStubborn => 2,
            AttackScenario::EqualForkStubborn => 3,
            AttackScenario::TrailStubborn { lag } => 0x5747_0000_0000_0000 | *lag as u64,
        }
    }
}

impl fmt::Display for AttackScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Owner;

    fn params(d: usize, f: usize, l: usize) -> AttackParams {
        AttackParams::new(0.3, 0.5, d, f, l).unwrap()
    }

    /// Deterministic sweep over a slice of the (d=2, f=2) state space.
    fn state_slice(p: &AttackParams) -> Vec<SmState> {
        let mut states = Vec::new();
        for a in 0..=3u8 {
            for b in 0..=3u8 {
                for owner in [Owner::Honest, Owner::Adversary] {
                    for phase in [Phase::Mining, Phase::HonestFound, Phase::AdversaryFound] {
                        let state = SmState {
                            forks: vec![a, b, 0, 1],
                            owners: vec![owner],
                            phase,
                        };
                        if state.is_consistent(p) {
                            states.push(state);
                        }
                    }
                }
            }
        }
        states
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let family = AttackScenario::default_family();
        let labels: std::collections::HashSet<String> =
            family.iter().map(AttackScenario::label).collect();
        assert_eq!(labels.len(), family.len());
        assert_eq!(AttackScenario::Optimal.label(), "optimal");
        assert_eq!(
            AttackScenario::TrailStubborn { lag: 2 }.label(),
            "trail-stubborn(2)"
        );
        assert_eq!(format!("{}", AttackScenario::HonestMining), "honest-mining");
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        let mut family = AttackScenario::default_family();
        family.push(AttackScenario::TrailStubborn { lag: 7 });
        for scenario in family {
            assert_eq!(
                AttackScenario::from_label(&scenario.label()),
                Some(scenario)
            );
        }
        for junk in [
            "",
            "Optimal",
            "trail-stubborn",
            "trail-stubborn()",
            "trail-stubborn(-1)",
            "trail-stubborn(two)",
            "lead-stubborn ",
        ] {
            assert_eq!(AttackScenario::from_label(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn seed_salts_are_distinct_and_optimal_is_zero() {
        let mut family = AttackScenario::default_family();
        family.push(AttackScenario::TrailStubborn { lag: 3 });
        let salts: std::collections::HashSet<u64> =
            family.iter().map(AttackScenario::seed_salt).collect();
        assert_eq!(salts.len(), family.len());
        assert_eq!(AttackScenario::Optimal.seed_salt(), 0);
    }

    #[test]
    fn every_scenario_admits_at_least_one_action_everywhere() {
        let p = params(2, 2, 3);
        let mut family = AttackScenario::default_family();
        family.push(AttackScenario::TrailStubborn { lag: 1 });
        for state in state_slice(&p) {
            for scenario in &family {
                let actions = scenario.admissible_actions(&p, &state);
                assert!(!actions.is_empty(), "{scenario} admits nothing in {state}");
                // Admissible sets are always subsets of the available set.
                let available = available_actions(&p, &state);
                assert!(actions.iter().all(|a| available.contains(a)));
            }
        }
    }

    #[test]
    fn optimal_admits_exactly_the_available_actions() {
        let p = params(2, 2, 3);
        for state in state_slice(&p) {
            assert_eq!(
                AttackScenario::Optimal.admissible_actions(&p, &state),
                available_actions(&p, &state)
            );
        }
    }

    #[test]
    fn lead_stubborn_admits_only_matching_releases() {
        let p = params(2, 1, 4);
        let mut state = SmState::initial(&p);
        state.phase = Phase::HonestFound;
        *state.fork_length_mut(&p, 1, 1) = 3;
        let actions = AttackScenario::LeadStubborn.admissible_actions(&p, &state);
        assert!(actions.contains(&SmAction::Mine));
        for action in &actions {
            if let SmAction::Release { depth, length, .. } = action {
                assert_eq!(length, depth);
            }
        }
        // The override release(1,1,2) is available but not admitted.
        assert!(available_actions(&p, &state).contains(&SmAction::Release {
            depth: 1,
            fork: 1,
            length: 2
        }));
        assert!(!actions.contains(&SmAction::Release {
            depth: 1,
            fork: 1,
            length: 2
        }));
        // On its own block find there is no pending block to match: every
        // release there is an override, so lead-stubborn admits none.
        state.phase = Phase::AdversaryFound;
        assert_eq!(
            AttackScenario::LeadStubborn.admissible_actions(&p, &state),
            vec![SmAction::Mine]
        );
    }

    #[test]
    fn equal_fork_stubborn_refuses_tie_races() {
        let p = params(1, 1, 4);
        let mut state = SmState::initial(&p);
        state.phase = Phase::HonestFound;
        *state.fork_length_mut(&p, 1, 1) = 2;
        let actions = AttackScenario::EqualForkStubborn.admissible_actions(&p, &state);
        // The tie release(1,1,1) is excluded, the winning release(1,1,2) kept.
        assert!(!actions.contains(&SmAction::Release {
            depth: 1,
            fork: 1,
            length: 1
        }));
        assert!(actions.contains(&SmAction::Release {
            depth: 1,
            fork: 1,
            length: 2
        }));
        // In an AdversaryFound state every release wins outright and is kept.
        state.phase = Phase::AdversaryFound;
        let adversary_actions = AttackScenario::EqualForkStubborn.admissible_actions(&p, &state);
        assert_eq!(adversary_actions, available_actions(&p, &state));
    }

    #[test]
    fn trail_stubborn_bounds_the_release_depth() {
        let p = params(3, 1, 4);
        let mut state = SmState::initial(&p);
        state.phase = Phase::AdversaryFound;
        *state.fork_length_mut(&p, 1, 1) = 1;
        *state.fork_length_mut(&p, 2, 1) = 2;
        *state.fork_length_mut(&p, 3, 1) = 3;
        let t0 = AttackScenario::TrailStubborn { lag: 0 }.admissible_actions(&p, &state);
        assert!(t0
            .iter()
            .all(|a| !matches!(a, SmAction::Release { depth, .. } if *depth > 1)));
        assert!(t0.iter().any(SmAction::is_release));
        let t1 = AttackScenario::TrailStubborn { lag: 1 }.admissible_actions(&p, &state);
        assert!(t1
            .iter()
            .any(|a| matches!(a, SmAction::Release { depth: 2, .. })));
        assert!(t1
            .iter()
            .all(|a| !matches!(a, SmAction::Release { depth: 3, .. })));
        // Full lag admits everything the optimal scenario does.
        let full = AttackScenario::TrailStubborn { lag: 2 }.admissible_actions(&p, &state);
        assert_eq!(full, available_actions(&p, &state));
    }

    #[test]
    fn honest_mining_forces_the_full_tip_release() {
        let p = params(2, 1, 4);
        let mut state = SmState::initial(&p);
        state.phase = Phase::AdversaryFound;
        *state.fork_length_mut(&p, 1, 1) = 1;
        let actions = AttackScenario::HonestMining.admissible_actions(&p, &state);
        assert_eq!(
            actions,
            vec![SmAction::Release {
                depth: 1,
                fork: 1,
                length: 1
            }]
        );
        // Without a tip fork, honest behaviour keeps mining.
        let mut deep = SmState::initial(&p);
        deep.phase = Phase::AdversaryFound;
        *deep.fork_length_mut(&p, 2, 1) = 1;
        assert_eq!(
            AttackScenario::HonestMining.admissible_actions(&p, &deep),
            vec![SmAction::Mine]
        );
        // A pending honest block is always incorporated.
        let mut pending = SmState::initial(&p);
        pending.phase = Phase::HonestFound;
        assert_eq!(
            AttackScenario::HonestMining.admissible_actions(&p, &pending),
            vec![SmAction::Mine]
        );
    }

    #[test]
    fn honest_mining_restricts_the_mining_split_to_the_tip() {
        let p = params(3, 2, 4);
        let state = SmState::initial(&p);
        assert_eq!(AttackScenario::Optimal.mining_slots(&p, &state), 3);
        assert_eq!(AttackScenario::HonestMining.mining_slots(&p, &state), 1);
        assert!(AttackScenario::HonestMining.restricts_mining_to_tip());
        assert!(AttackScenario::HonestMining.admits_mining_depth(1));
        assert!(!AttackScenario::HonestMining.admits_mining_depth(2));
        assert!(AttackScenario::LeadStubborn.admits_mining_depth(3));
    }

    #[test]
    fn mining_slots_agree_with_the_state_count_for_unrestricted_scenarios() {
        let p = params(2, 2, 3);
        for state in state_slice(&p) {
            for scenario in [
                AttackScenario::Optimal,
                AttackScenario::LeadStubborn,
                AttackScenario::EqualForkStubborn,
                AttackScenario::TrailStubborn { lag: 0 },
            ] {
                assert_eq!(scenario.mining_slots(&p, &state), state.mining_slots(&p));
            }
            assert!(AttackScenario::HonestMining.mining_slots(&p, &state) >= 1);
        }
    }

    #[test]
    fn trail_stubborn_with_saturating_lag_admits_every_release() {
        // Regression: `lag + 1` used to overflow for lag = usize::MAX (debug
        // panic; release wrap to 0, silently rejecting every release).
        let p = params(2, 1, 4);
        let mut state = SmState::initial(&p);
        state.phase = Phase::AdversaryFound;
        *state.fork_length_mut(&p, 2, 1) = 3;
        let unbounded = AttackScenario::TrailStubborn { lag: usize::MAX };
        assert_eq!(
            unbounded.admissible_actions(&p, &state),
            available_actions(&p, &state)
        );
    }

    #[test]
    fn certificate_scope_follows_the_backend_capability() {
        for backend in ConsensusBackend::default_family() {
            let scope = CertificateScope::for_backend(backend);
            if backend.adversary_can_plan_ahead() {
                assert_eq!(scope, CertificateScope::LowerBoundOnly, "{backend}");
            } else {
                assert_eq!(scope, CertificateScope::TwoSided, "{backend}");
            }
        }
        assert_eq!(CertificateScope::TwoSided.label(), "two-sided");
        assert_eq!(
            format!("{}", CertificateScope::LowerBoundOnly),
            "lower-bound-only"
        );
        assert_eq!(CertificateScope::default(), CertificateScope::TwoSided);
    }

    #[test]
    fn restriction_classification_matches_the_family() {
        assert!(AttackScenario::Optimal.is_action_restriction());
        assert!(AttackScenario::LeadStubborn.is_action_restriction());
        assert!(AttackScenario::EqualForkStubborn.is_action_restriction());
        assert!(AttackScenario::TrailStubborn { lag: 4 }.is_action_restriction());
        assert!(!AttackScenario::HonestMining.is_action_restriction());
    }
}
