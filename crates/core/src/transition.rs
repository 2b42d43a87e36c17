//! The probabilistic transition function of the selfish-mining MDP
//! (Section 3.2, "Transition Function") together with the block-finalization
//! accounting that drives the reward functions of Section 3.3.
//!
//! # Modelling conventions
//!
//! The reproduction uses the *pre-incorporation* convention for honest blocks
//! (see [`crate::Phase`]): in a [`Phase::HonestFound`] state the freshly found
//! honest block is pending and the depth indexing of `C` and `O` still refers
//! to the accepted public chain without it. A `release(i, j, k)` therefore
//! competes against the accepted chain *plus the pending block*:
//!
//! * `k > i` — the published fork is strictly longer; honest miners switch
//!   with probability 1.
//! * `k = i` — the published fork ties with the public chain including the
//!   pending block; a race happens and honest miners switch with the
//!   switching probability `γ`.
//! * `k < i` — the fork is shorter; the action is dominated and not offered.
//!
//! In a [`Phase::AdversaryFound`] state there is no pending honest block, so a
//! release needs `k ≥ i` (strictly longer than the `i − 1` blocks it orphans)
//! and is accepted with probability 1, as in the paper.
//!
//! A block is *final* once it sits at depth ≥ `d` of the accepted chain: no
//! private fork (which is rooted at depth ≤ `d` and therefore orphans accepted
//! blocks at depths ≤ `d − 1` only) can ever remove it. The reward functions
//! `r_A` / `r_H` count adversarial / honest blocks at the moment they cross
//! that boundary, which matches the paper's "accepted at depth greater than
//! `d`" accounting up to a constant shift of one step that does not affect any
//! long-run average.

use crate::{AttackParams, AttackScenario, Owner, Phase, SelfishMiningError, SmAction, SmState};

/// Blocks finalized by one MDP transition, split by owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockRewards {
    /// Number of adversary-owned blocks that became final.
    pub adversary: u32,
    /// Number of honest-owned blocks that became final.
    pub honest: u32,
}

impl BlockRewards {
    /// No blocks finalized.
    pub const ZERO: BlockRewards = BlockRewards {
        adversary: 0,
        honest: 0,
    };
}

/// A single probabilistic outcome of applying an action in a state.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Successor state.
    pub state: SmState,
    /// Probability of this outcome (outcomes of one action sum to 1).
    pub probability: f64,
    /// Blocks finalized on this outcome.
    pub rewards: BlockRewards,
}

/// A *parametric* transition probability: the probability of one outcome as a
/// symbolic term over the numeric attack parameters `(p, γ)`, closed over the
/// structural data (the state's mining-slot count `σ`) that the transition
/// function derives from `(d, f, l)` alone.
///
/// Every outcome of the selfish-mining transition function is one of these
/// five atoms; a whole `(d, f, l)` topology can therefore be explored once
/// and re-instantiated for any `(p, γ)` by evaluating the atoms
/// ([`ProbTerm::eval`]) — this is what [`crate::ParametricModel`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbTerm {
    /// Probability 1 — a deterministic outcome.
    One,
    /// `p / ((1 − p) + p·σ)` — the adversary extends one of its `σ` mining
    /// positions (Section 3.2's `(p, k)`-mining split).
    AdversaryShare {
        /// The state's number of mining slots `σ`.
        slots: u32,
    },
    /// `(1 − p) / ((1 − p) + p·σ)` — honest miners find the next proof.
    HonestShare {
        /// The state's number of mining slots `σ`.
        slots: u32,
    },
    /// `γ` — honest miners switch to the revealed fork after a tie release.
    Gamma,
    /// `1 − γ` — honest miners keep the public chain after a tie release.
    OneMinusGamma,
}

impl ProbTerm {
    /// Evaluates the term at concrete parameter values.
    ///
    /// The arithmetic mirrors the numeric transition function expression for
    /// expression, so instantiating a parametric topology reproduces the
    /// directly-built model bit for bit.
    #[inline]
    pub fn eval(self, p: f64, gamma: f64) -> f64 {
        match self {
            ProbTerm::One => 1.0,
            ProbTerm::AdversaryShare { slots } => {
                let sigma = slots as f64;
                p / ((1.0 - p) + p * sigma)
            }
            ProbTerm::HonestShare { slots } => {
                let sigma = slots as f64;
                (1.0 - p) / ((1.0 - p) + p * sigma)
            }
            ProbTerm::Gamma => gamma,
            ProbTerm::OneMinusGamma => 1.0 - gamma,
        }
    }
}

/// A single outcome of the *parametric* transition function: like
/// [`Outcome`], but with the probability as a symbolic [`ProbTerm`] instead
/// of a number, and with every branch present regardless of whether the
/// numeric parameters would mask it (e.g. the race-win branch at `γ = 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicOutcome {
    /// Successor state.
    pub state: SmState,
    /// Parametric probability of this outcome (the terms of one action
    /// evaluate to a distribution summing to 1 for every valid `(p, γ)`).
    pub term: ProbTerm,
    /// Blocks finalized on this outcome.
    pub rewards: BlockRewards,
}

/// The set of actions available in `state` (the paper's `A(s)`).
///
/// Dominated releases (forks strictly shorter than the public chain they
/// compete against) are not offered; removing them does not change the optimal
/// expected relative revenue and keeps the MDP smaller.
pub fn available_actions(params: &AttackParams, state: &SmState) -> Vec<SmAction> {
    let mut actions = vec![SmAction::Mine];
    if state.phase == Phase::Mining {
        return actions;
    }
    for depth in 1..=params.depth {
        for fork in 1..=params.forks_per_block {
            let fork_len = state.fork_length(params, depth, fork) as usize;
            // Minimal useful release length: ties are only possible against a
            // pending honest block.
            let min_len = depth;
            for length in min_len..=fork_len {
                // In an AdversaryFound state a tie cannot be won (the paper's
                // "race cannot happen" case), so `length == depth` is only
                // offered when an honest block is pending... except that for
                // AdversaryFound the tie would be against the accepted chain
                // of the same height, where `length == depth` already means
                // strictly longer by one (no pending block), so it stays.
                actions.push(SmAction::Release {
                    depth,
                    fork,
                    length,
                });
            }
        }
    }
    actions
}

/// The admissible action set of `state` under `scenario` — the paper's
/// `A(s)` filtered by the scenario's restriction
/// ([`AttackScenario::admits`]). For [`AttackScenario::Optimal`] this is
/// exactly [`available_actions`].
pub fn available_actions_in(
    scenario: &AttackScenario,
    params: &AttackParams,
    state: &SmState,
) -> Vec<SmAction> {
    scenario.admissible_actions(params, state)
}

/// Applies `action` in `state` under an attack scenario and returns all
/// probabilistic outcomes with positive probability at the parameters'
/// `(p, γ)`.
///
/// This is the numeric view of [`symbolic_successors_in`]: the symbolic
/// terms are evaluated at `(params.p, params.gamma)` and masked
/// (zero-probability) branches are dropped. The scenario's transition filter
/// applies (for [`AttackScenario::HonestMining`] the mining split runs over
/// the tip positions only) and actions the scenario does not admit are
/// rejected; [`AttackScenario::Optimal`] admits every action of
/// [`available_actions`].
///
/// # Errors
///
/// Returns [`SelfishMiningError::UnavailableAction`] if the action is
/// unavailable in the state *or* not admitted by the scenario.
pub fn successors_in(
    scenario: &AttackScenario,
    params: &AttackParams,
    state: &SmState,
    action: &SmAction,
) -> Result<Vec<Outcome>, SelfishMiningError> {
    let symbolic = symbolic_successors_in(scenario, params, state, action)?;
    Ok(symbolic
        .into_iter()
        .filter_map(|outcome| {
            let probability = outcome.term.eval(params.p, params.gamma);
            (probability > 0.0).then_some(Outcome {
                state: outcome.state,
                probability,
                rewards: outcome.rewards,
            })
        })
        .collect())
}

/// Applies `action` in `state` under an attack scenario and returns all
/// *parametric* outcomes: the full branch structure of the transition
/// function, with probabilities as symbolic [`ProbTerm`]s over `(p, γ)`.
///
/// Unlike [`successors_in`], the result depends only on the structural
/// parameters `(d, f, l)` — `params.p` and `params.gamma` are never read —
/// and zero-probability branches (the adversary split at `p = 0`, the race
/// branches at `γ ∈ {0, 1}`) are kept. This is the exploration primitive of
/// the per-scenario [`crate::ParametricModel`] arenas. The only
/// scenario-dependent branch structure is the `mine` split, whose slot set
/// (and therefore `σ`) is filtered through
/// [`AttackScenario::admits_mining_depth`]; every other action's outcomes
/// are scenario-independent.
///
/// # Errors
///
/// Returns [`SelfishMiningError::UnavailableAction`] if the action is
/// unavailable in the state or not admitted by the scenario.
pub fn symbolic_successors_in(
    scenario: &AttackScenario,
    params: &AttackParams,
    state: &SmState,
    action: &SmAction,
) -> Result<Vec<SymbolicOutcome>, SelfishMiningError> {
    if !scenario.admits(params, state, action) {
        return Err(unavailable(state, action));
    }
    match (state.phase, action) {
        (Phase::Mining, SmAction::Mine) => Ok(mining_outcomes(scenario, params, state)),
        (Phase::Mining, SmAction::Release { .. }) => Err(unavailable(state, action)),
        (Phase::AdversaryFound, SmAction::Mine) => {
            let mut next = state.clone();
            next.phase = Phase::Mining;
            Ok(vec![SymbolicOutcome {
                state: next,
                term: ProbTerm::One,
                rewards: BlockRewards::ZERO,
            }])
        }
        (Phase::HonestFound, SmAction::Mine) => {
            let (next, rewards) = incorporate_pending_honest_block(params, state);
            Ok(vec![SymbolicOutcome {
                state: next,
                term: ProbTerm::One,
                rewards,
            }])
        }
        (
            phase,
            SmAction::Release {
                depth,
                fork,
                length,
            },
        ) => release_outcomes(params, state, phase, *depth, *fork, *length),
    }
}

fn unavailable(state: &SmState, action: &SmAction) -> SelfishMiningError {
    SelfishMiningError::UnavailableAction {
        state: state.to_string(),
        action: action.to_string(),
    }
}

/// Outcomes of the `mine` action in a `Mining`-phase state: nature decides who
/// finds the next proof. The split is parametric — `σ` adversary branches
/// weighing `p / ((1−p) + p·σ)` each plus one honest branch — so the function
/// emits symbolic terms; `p = 1` is well defined because every admitted depth
/// offers at least one mining slot (`σ ≥ 1`: depth 1 is admitted by every
/// scenario), keeping the denominator positive for every `p ∈ [0, 1]`.
///
/// The scenario's transition filter applies here: depths it does not admit
/// ([`AttackScenario::admits_mining_depth`]) contribute neither branches nor
/// slots to `σ`. For [`AttackScenario::Optimal`] the split is exactly the
/// paper's, with `σ = `[`SmState::mining_slots`].
fn mining_outcomes(
    scenario: &AttackScenario,
    params: &AttackParams,
    state: &SmState,
) -> Vec<SymbolicOutcome> {
    let slots = u32::try_from(scenario.mining_slots(params, state))
        .expect("mining slots bounded by d·(f+1)");
    let mut outcomes = Vec::new();

    for depth in 1..=params.depth {
        if !scenario.admits_mining_depth(depth) {
            continue;
        }
        // Extend every non-empty fork.
        for fork in 1..=params.forks_per_block {
            let len = state.fork_length(params, depth, fork);
            if len == 0 {
                continue;
            }
            let mut next = state.clone();
            *next.fork_length_mut(params, depth, fork) =
                len.saturating_add(1).min(params.max_fork_length as u8);
            next.phase = Phase::AdversaryFound;
            outcomes.push(SymbolicOutcome {
                state: next,
                term: ProbTerm::AdversaryShare { slots },
                rewards: BlockRewards::ZERO,
            });
        }
        // Start one new fork in the lowest-index empty slot, if any.
        if let Some(fork) = state.first_empty_fork(params, depth) {
            let mut next = state.clone();
            *next.fork_length_mut(params, depth, fork) = 1;
            next.phase = Phase::AdversaryFound;
            outcomes.push(SymbolicOutcome {
                state: next,
                term: ProbTerm::AdversaryShare { slots },
                rewards: BlockRewards::ZERO,
            });
        }
    }

    let mut next = state.clone();
    next.phase = Phase::HonestFound;
    outcomes.push(SymbolicOutcome {
        state: next,
        term: ProbTerm::HonestShare { slots },
        rewards: BlockRewards::ZERO,
    });
    outcomes
}

/// Incorporates the pending honest block into the accepted chain: depth
/// indices shift by one, forks rooted beyond depth `d` are abandoned, and the
/// block pushed past the finality boundary is rewarded.
fn incorporate_pending_honest_block(
    params: &AttackParams,
    state: &SmState,
) -> (SmState, BlockRewards) {
    let d = params.depth;
    let f = params.forks_per_block;
    let mut rewards = BlockRewards::ZERO;

    // Finalization: the block leaving the tracked window becomes final. For
    // d = 1 the pending honest block itself lands at depth d and is final
    // immediately.
    if d == 1 {
        rewards.honest += 1;
    } else {
        match state.owners[d - 2] {
            Owner::Honest => rewards.honest += 1,
            Owner::Adversary => rewards.adversary += 1,
        }
    }

    // Shift owners: the pending honest block enters at depth 1.
    let mut owners = Vec::with_capacity(d.saturating_sub(1));
    if d >= 2 {
        owners.push(Owner::Honest);
        owners.extend_from_slice(&state.owners[..d - 2]);
    }

    // Shift forks: fresh empty row at depth 1, previous rows move one deeper,
    // the row previously at depth d is dropped.
    let mut forks = vec![0u8; d * f];
    for depth in 2..=d {
        let src = (depth - 2) * f;
        let dst = (depth - 1) * f;
        forks[dst..dst + f].copy_from_slice(&state.forks[src..src + f]);
    }

    (
        SmState {
            forks,
            owners,
            phase: Phase::Mining,
        },
        rewards,
    )
}

/// Outcomes of a `release(i, j, k)` action.
fn release_outcomes(
    params: &AttackParams,
    state: &SmState,
    phase: Phase,
    depth: usize,
    fork: usize,
    length: usize,
) -> Result<Vec<SymbolicOutcome>, SelfishMiningError> {
    let action = SmAction::Release {
        depth,
        fork,
        length,
    };
    if phase == Phase::Mining
        || depth == 0
        || depth > params.depth
        || fork == 0
        || fork > params.forks_per_block
        || length == 0
        || length > state.fork_length(params, depth, fork) as usize
        || length < depth
    {
        return Err(unavailable(state, &action));
    }

    let (accepted, accept_rewards) = accept_release(params, state, depth, fork, length);

    match phase {
        Phase::AdversaryFound => {
            // No pending honest block: `length ≥ depth` means the published
            // chain is strictly longer than the public one, so it is adopted
            // with probability 1.
            Ok(vec![SymbolicOutcome {
                state: accepted,
                term: ProbTerm::One,
                rewards: accept_rewards,
            }])
        }
        Phase::HonestFound => {
            if length > depth {
                // Strictly longer than the public chain including the pending
                // honest block: adopted with probability 1, the pending block
                // is orphaned.
                return Ok(vec![SymbolicOutcome {
                    state: accepted,
                    term: ProbTerm::One,
                    rewards: accept_rewards,
                }]);
            }
            // Tie (`length == depth`): a race decided by the switching
            // probability γ. On rejection the pending honest block is
            // incorporated and the adversary keeps its (shifted) forks.
            let (rejected, reject_rewards) = incorporate_pending_honest_block(params, state);
            Ok(vec![
                SymbolicOutcome {
                    state: accepted,
                    term: ProbTerm::Gamma,
                    rewards: accept_rewards,
                },
                SymbolicOutcome {
                    state: rejected,
                    term: ProbTerm::OneMinusGamma,
                    rewards: reject_rewards,
                },
            ])
        }
        Phase::Mining => unreachable!("handled above"),
    }
}

/// Applies an accepted release of the first `length` blocks of fork
/// `(depth, fork)`: the accepted chain loses its top `depth − 1` blocks,
/// gains `length` adversary blocks, forks re-anchor to their (possibly
/// deeper) root positions, and every block crossing the finality boundary is
/// rewarded.
fn accept_release(
    params: &AttackParams,
    state: &SmState,
    depth: usize,
    fork: usize,
    length: usize,
) -> (SmState, BlockRewards) {
    let d = params.depth;
    let f = params.forks_per_block;
    // Net growth of the accepted chain.
    let delta = length - (depth - 1);
    let mut rewards = BlockRewards::ZERO;

    // Newly published adversary blocks that are already final (new depth ≥ d):
    // the published blocks occupy new depths 1..=length.
    if length >= d {
        rewards.adversary += (length - d + 1) as u32;
    }
    // Previously accepted blocks pushed past the finality boundary: old depth
    // m ∈ [depth, d−1] with new depth m + delta ≥ d.
    if d >= 2 {
        let lowest_finalized = d.saturating_sub(delta).max(depth);
        for m in lowest_finalized..=(d - 1) {
            match state.owners[m - 1] {
                Owner::Honest => rewards.honest += 1,
                Owner::Adversary => rewards.adversary += 1,
            }
        }
    }

    // New owner vector.
    let mut owners = vec![Owner::Adversary; d.saturating_sub(1)];
    for (idx, owner) in owners.iter_mut().enumerate() {
        let q = idx + 1; // new depth
        if q <= length {
            *owner = Owner::Adversary;
        } else {
            // Old block at depth q − delta (guaranteed ≥ `depth` and ≤ d − 2).
            let m = q - delta;
            *owner = state.owners[m - 1];
        }
    }

    // New fork matrix.
    let mut forks = vec![0u8; d * f];
    // Remainder of the released fork re-anchors on the new tip.
    let remainder = state.fork_length(params, depth, fork) as usize - length;
    forks[0] = remainder as u8;
    // Forks rooted at surviving old blocks move `delta` deeper.
    for old_depth in depth..=d {
        let new_depth = old_depth + delta;
        if new_depth > d {
            break;
        }
        let src = (old_depth - 1) * f;
        let dst = (new_depth - 1) * f;
        forks[dst..dst + f].copy_from_slice(&state.forks[src..src + f]);
        if old_depth == depth {
            // The released fork's slot restarts empty at its root's new depth.
            forks[dst + (fork - 1)] = 0;
        }
    }

    (
        SmState {
            forks,
            owners,
            phase: Phase::Mining,
        },
        rewards,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(p: f64, gamma: f64, d: usize, f: usize, l: usize) -> AttackParams {
        AttackParams::new(p, gamma, d, f, l).unwrap()
    }

    fn probabilities_sum_to_one(outcomes: &[Outcome]) {
        let sum: f64 = outcomes.iter().map(|o| o.probability).sum();
        assert!((sum - 1.0).abs() < 1e-12, "probabilities sum to {sum}");
    }

    #[test]
    fn mining_state_offers_only_mine() {
        let p = params(0.3, 0.5, 2, 2, 4);
        let s = SmState::initial(&p);
        assert_eq!(available_actions(&p, &s), vec![SmAction::Mine]);
    }

    #[test]
    fn mining_outcomes_split_between_parties() {
        let p = params(0.3, 0.5, 2, 1, 4);
        let s = SmState::initial(&p);
        let outs = successors_in(&AttackScenario::Optimal, &p, &s, &SmAction::Mine).unwrap();
        // Two depths with empty slots + one honest outcome.
        assert_eq!(outs.len(), 3);
        probabilities_sum_to_one(&outs);
        // σ = 2, so each adversarial outcome has probability p / (1 − p + 2p).
        let expected = 0.3 / (0.7 + 0.6);
        assert!(outs
            .iter()
            .filter(|o| o.state.phase == Phase::AdversaryFound)
            .all(|o| (o.probability - expected).abs() < 1e-12));
        let honest = outs
            .iter()
            .find(|o| o.state.phase == Phase::HonestFound)
            .unwrap();
        assert!((honest.probability - 0.7 / 1.3).abs() < 1e-12);
        // The adversarial outcomes start forks of length 1.
        assert!(outs
            .iter()
            .filter(|o| o.state.phase == Phase::AdversaryFound)
            .all(|o| o.state.total_private_blocks() == 1));
    }

    #[test]
    fn fork_length_is_capped_at_l() {
        let p = params(0.5, 0.5, 1, 1, 2);
        let mut s = SmState::initial(&p);
        *s.fork_length_mut(&p, 1, 1) = 2;
        let outs = successors_in(&AttackScenario::Optimal, &p, &s, &SmAction::Mine).unwrap();
        probabilities_sum_to_one(&outs);
        for o in &outs {
            assert!(o.state.fork_length(&p, 1, 1) <= 2);
        }
    }

    #[test]
    fn honest_mine_action_finalizes_deepest_tracked_block() {
        let p = params(0.3, 0.5, 3, 1, 4);
        let mut s = SmState::initial(&p);
        s.phase = Phase::HonestFound;
        s.owners = vec![Owner::Adversary, Owner::Adversary];
        *s.fork_length_mut(&p, 1, 1) = 2;
        *s.fork_length_mut(&p, 3, 1) = 1;
        let outs = successors_in(&AttackScenario::Optimal, &p, &s, &SmAction::Mine).unwrap();
        assert_eq!(outs.len(), 1);
        let out = &outs[0];
        // The block at depth d−1 = 2 (adversary) crossed the boundary.
        assert_eq!(
            out.rewards,
            BlockRewards {
                adversary: 1,
                honest: 0
            }
        );
        // Owners shifted with the new honest block on top.
        assert_eq!(out.state.owners, vec![Owner::Honest, Owner::Adversary]);
        // Forks shifted one deeper; the fork at depth 3 fell off.
        assert_eq!(out.state.fork_length(&p, 1, 1), 0);
        assert_eq!(out.state.fork_length(&p, 2, 1), 2);
        assert_eq!(out.state.fork_length(&p, 3, 1), 0);
        assert_eq!(out.state.phase, Phase::Mining);
    }

    #[test]
    fn honest_mine_action_with_depth_one_finalizes_the_pending_block() {
        let p = params(0.3, 0.5, 1, 1, 4);
        let mut s = SmState::initial(&p);
        s.phase = Phase::HonestFound;
        *s.fork_length_mut(&p, 1, 1) = 1;
        let outs = successors_in(&AttackScenario::Optimal, &p, &s, &SmAction::Mine).unwrap();
        assert_eq!(
            outs[0].rewards,
            BlockRewards {
                adversary: 0,
                honest: 1
            }
        );
        // The withheld fork is abandoned (its root moved beyond the window).
        assert_eq!(outs[0].state.total_private_blocks(), 0);
    }

    #[test]
    fn tie_release_races_with_switching_probability() {
        // Classic SM1 race at d = 1: one withheld block vs the pending honest
        // block.
        let p = params(0.3, 0.25, 1, 1, 4);
        let mut s = SmState::initial(&p);
        s.phase = Phase::HonestFound;
        *s.fork_length_mut(&p, 1, 1) = 1;
        let action = SmAction::Release {
            depth: 1,
            fork: 1,
            length: 1,
        };
        assert!(available_actions(&p, &s).contains(&action));
        let outs = successors_in(&AttackScenario::Optimal, &p, &s, &action).unwrap();
        assert_eq!(outs.len(), 2);
        probabilities_sum_to_one(&outs);
        let accept = outs.iter().find(|o| o.probability == 0.25).unwrap();
        let reject = outs.iter().find(|o| o.probability == 0.75).unwrap();
        // Accepted: the adversary block is final (d = 1), honest pending block orphaned.
        assert_eq!(
            accept.rewards,
            BlockRewards {
                adversary: 1,
                honest: 0
            }
        );
        // Rejected: the pending honest block is final.
        assert_eq!(
            reject.rewards,
            BlockRewards {
                adversary: 0,
                honest: 1
            }
        );
    }

    #[test]
    fn strictly_longer_release_is_always_accepted() {
        let p = params(0.3, 0.0, 2, 1, 4);
        let mut s = SmState::initial(&p);
        s.phase = Phase::HonestFound;
        s.owners = vec![Owner::Honest];
        *s.fork_length_mut(&p, 2, 1) = 3;
        // Fork rooted at depth 2, releasing 3 > depth blocks: orphans the
        // block at depth 1 and the pending honest block, even though γ = 0.
        let action = SmAction::Release {
            depth: 2,
            fork: 1,
            length: 3,
        };
        let outs = successors_in(&AttackScenario::Optimal, &p, &s, &action).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].probability, 1.0);
        // delta = 3 − 1 = 2. New adversary blocks at depths 1..3: those at
        // depth ≥ 2 are final → 2 adversary blocks. The orphaned honest block
        // at old depth 1 is never rewarded.
        assert_eq!(
            outs[0].rewards,
            BlockRewards {
                adversary: 2,
                honest: 0
            }
        );
        // The new tracked owner (depth 1) is the adversary.
        assert_eq!(outs[0].state.owners, vec![Owner::Adversary]);
        assert_eq!(outs[0].state.phase, Phase::Mining);
    }

    #[test]
    fn adversary_found_release_needs_strictly_longer_fork() {
        let p = params(0.3, 0.5, 2, 1, 4);
        let mut s = SmState::initial(&p);
        s.phase = Phase::AdversaryFound;
        *s.fork_length_mut(&p, 2, 1) = 1;
        // length 1 < depth 2: dominated, not available.
        let actions = available_actions(&p, &s);
        assert!(!actions.contains(&SmAction::Release {
            depth: 2,
            fork: 1,
            length: 1
        }));
        // With a length-2 fork the release becomes available and wins surely.
        *s.fork_length_mut(&p, 2, 1) = 2;
        let action = SmAction::Release {
            depth: 2,
            fork: 1,
            length: 2,
        };
        assert!(available_actions(&p, &s).contains(&action));
        let outs = successors_in(&AttackScenario::Optimal, &p, &s, &action).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].probability, 1.0);
    }

    #[test]
    fn release_remainder_reanchors_on_new_tip() {
        let p = params(0.3, 0.5, 2, 2, 4);
        let mut s = SmState::initial(&p);
        s.phase = Phase::AdversaryFound;
        s.owners = vec![Owner::Honest];
        *s.fork_length_mut(&p, 1, 1) = 4;
        *s.fork_length_mut(&p, 1, 2) = 2;
        // Release 2 of the 4 blocks of fork (1,1): the remaining 2 blocks
        // re-anchor as a fork on the new tip.
        let action = SmAction::Release {
            depth: 1,
            fork: 1,
            length: 2,
        };
        let outs = successors_in(&AttackScenario::Optimal, &p, &s, &action).unwrap();
        let next = &outs[0].state;
        assert_eq!(next.fork_length(&p, 1, 1), 2, "remainder fork");
        // delta = 2: the old depth-1 root would move to depth 3 > d, so the
        // sibling fork (1,2) is abandoned.
        assert_eq!(next.fork_length(&p, 2, 1), 0);
        assert_eq!(next.fork_length(&p, 2, 2), 0);
        // The new tracked block (depth 1) is an adversary block. Final blocks:
        // one released adversary block lands at depth ≥ d = 2, and the old
        // honest tip (the fork's root) is pushed to depth 3 ≥ d.
        assert_eq!(
            outs[0].rewards,
            BlockRewards {
                adversary: 1,
                honest: 1
            }
        );
        assert_eq!(next.owners, vec![Owner::Adversary]);
    }

    #[test]
    fn release_with_unit_growth_keeps_sibling_forks() {
        let p = params(0.3, 0.5, 3, 2, 4);
        let mut s = SmState::initial(&p);
        s.phase = Phase::AdversaryFound;
        s.owners = vec![Owner::Honest, Owner::Adversary];
        *s.fork_length_mut(&p, 2, 1) = 2;
        *s.fork_length_mut(&p, 2, 2) = 1;
        *s.fork_length_mut(&p, 3, 1) = 1;
        // Release both blocks of fork (2,1): delta = 1.
        let action = SmAction::Release {
            depth: 2,
            fork: 1,
            length: 2,
        };
        let outs = successors_in(&AttackScenario::Optimal, &p, &s, &action).unwrap();
        let next = &outs[0].state;
        // Old depth-2 root moves to depth 3: sibling fork (2,2) survives there,
        // and the released slot restarts empty.
        assert_eq!(next.fork_length(&p, 3, 1), 0);
        assert_eq!(next.fork_length(&p, 3, 2), 1);
        // Old depth-3 fork would move to depth 4 > d: abandoned.
        // New depths 1..2 are the published blocks: remainder 0 at depth 1.
        assert_eq!(next.fork_length(&p, 1, 1), 0);
        assert_eq!(next.fork_length(&p, 2, 1), 0);
        // Owners: depths 1..2 adversary (published), delta = 1 so the old
        // depth-2 owner... is now at depth 3 which is ≥ d: it crossed the
        // boundary and was rewarded.
        assert_eq!(next.owners, vec![Owner::Adversary, Owner::Adversary]);
        assert_eq!(
            outs[0].rewards,
            BlockRewards {
                adversary: 1,
                honest: 0
            }
        );
    }

    #[test]
    fn probabilities_sum_to_one_across_random_states() {
        // Deterministic sweep over a slice of the state space.
        let p = params(0.35, 0.4, 2, 2, 3);
        for a in 0..=3u8 {
            for b in 0..=3u8 {
                for c in 0..=3u8 {
                    for owner in [Owner::Honest, Owner::Adversary] {
                        for phase in [Phase::Mining, Phase::HonestFound, Phase::AdversaryFound] {
                            let s = SmState {
                                forks: vec![a, b, c, 0],
                                owners: vec![owner],
                                phase,
                            };
                            for action in available_actions(&p, &s) {
                                let outs = successors_in(&AttackScenario::Optimal, &p, &s, &action)
                                    .unwrap();
                                probabilities_sum_to_one(&outs);
                                for o in &outs {
                                    assert!(o.state.is_consistent(&p));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn symbolic_outcomes_evaluate_to_the_numeric_transition_function() {
        // Across a parameter sweep including the masked edges, evaluating the
        // symbolic outcomes and dropping zero-probability branches must
        // reproduce `successors_in` exactly (same order, same bits).
        let cases = [
            (0.3, 0.5),
            (0.0, 0.5),
            (1.0, 0.5),
            (0.3, 0.0),
            (0.3, 1.0),
            (0.7, 0.25),
        ];
        for &(pv, gamma) in &cases {
            let p = params(pv, gamma, 2, 2, 3);
            for a in 0..=3u8 {
                for b in 0..=3u8 {
                    for phase in [Phase::Mining, Phase::HonestFound, Phase::AdversaryFound] {
                        let s = SmState {
                            forks: vec![a, b, 0, 1],
                            owners: vec![Owner::Honest],
                            phase,
                        };
                        for action in available_actions(&p, &s) {
                            let numeric =
                                successors_in(&AttackScenario::Optimal, &p, &s, &action).unwrap();
                            let symbolic =
                                symbolic_successors_in(&AttackScenario::Optimal, &p, &s, &action)
                                    .unwrap();
                            let evaluated: Vec<Outcome> = symbolic
                                .iter()
                                .filter_map(|o| {
                                    let probability = o.term.eval(pv, gamma);
                                    (probability > 0.0).then(|| Outcome {
                                        state: o.state.clone(),
                                        probability,
                                        rewards: o.rewards,
                                    })
                                })
                                .collect();
                            assert_eq!(numeric, evaluated);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn symbolic_outcomes_keep_masked_branches() {
        // γ = 0 numerically masks the race-win branch of a tie release; the
        // symbolic view must keep it.
        let p = params(0.3, 0.0, 1, 1, 4);
        let mut s = SmState::initial(&p);
        s.phase = Phase::HonestFound;
        *s.fork_length_mut(&p, 1, 1) = 1;
        let action = SmAction::Release {
            depth: 1,
            fork: 1,
            length: 1,
        };
        let symbolic = symbolic_successors_in(&AttackScenario::Optimal, &p, &s, &action).unwrap();
        assert_eq!(symbolic.len(), 2);
        assert_eq!(symbolic[0].term, ProbTerm::Gamma);
        assert_eq!(symbolic[1].term, ProbTerm::OneMinusGamma);
        assert_eq!(
            successors_in(&AttackScenario::Optimal, &p, &s, &action)
                .unwrap()
                .len(),
            1
        );

        // p = 0 masks the adversary split of the mine action.
        let p0 = params(0.0, 0.5, 1, 1, 4);
        let mut s0 = SmState::initial(&p0);
        *s0.fork_length_mut(&p0, 1, 1) = 1;
        let symbolic =
            symbolic_successors_in(&AttackScenario::Optimal, &p0, &s0, &SmAction::Mine).unwrap();
        assert!(symbolic
            .iter()
            .any(|o| matches!(o.term, ProbTerm::AdversaryShare { .. })));
        assert!(
            successors_in(&AttackScenario::Optimal, &p0, &s0, &SmAction::Mine)
                .unwrap()
                .iter()
                .all(|o| o.state.phase == Phase::HonestFound)
        );
    }

    #[test]
    fn prob_terms_form_a_distribution_for_every_parameter_choice() {
        let p = params(0.5, 0.5, 2, 2, 3);
        let mut s = SmState::initial(&p);
        *s.fork_length_mut(&p, 1, 1) = 2;
        for &(pv, gamma) in &[(0.0, 0.0), (1.0, 1.0), (0.3, 0.7), (1.0, 0.0)] {
            for action in available_actions(&p, &s) {
                let total: f64 = symbolic_successors_in(&AttackScenario::Optimal, &p, &s, &action)
                    .unwrap()
                    .iter()
                    .map(|o| o.term.eval(pv, gamma))
                    .sum();
                assert!((total - 1.0).abs() < 1e-12, "sum {total} at ({pv},{gamma})");
            }
        }
    }

    #[test]
    fn release_actions_rejected_in_wrong_phase_or_length() {
        let p = params(0.3, 0.5, 2, 1, 4);
        let s = SmState::initial(&p);
        let release = SmAction::Release {
            depth: 1,
            fork: 1,
            length: 1,
        };
        assert!(successors_in(&AttackScenario::Optimal, &p, &s, &release).is_err());
        let mut s2 = s.clone();
        s2.phase = Phase::AdversaryFound;
        // Fork is empty: length 1 exceeds it.
        assert!(successors_in(&AttackScenario::Optimal, &p, &s2, &release).is_err());
    }
}
