//! The single-tree selfish-mining baseline (baseline (2) of Section 4).
//!
//! This is the direct extension of the classic Eyal–Sirer proof-of-work attack
//! to efficient proof systems: the adversary grows a single private *tree*
//! rooted at the leading block of the main chain (exploiting cheap proofs to
//! mine on several tree nodes concurrently) and publishes the longest path of
//! the tree whenever the public chain catches up with the tree's depth, racing
//! it with the switching probability `γ`; when the adversary's lead drops from
//! two to one it publishes the whole path and wins outright, exactly as in the
//! original attack.
//!
//! Because the strategy is *fixed*, the attack induces a finite Markov chain
//! rather than an MDP: it is built as a one-action MDP and evaluated as the
//! chain its only strategy induces. Its expected relative revenue is the
//! ratio of the chain's long-run average rewards, using the same
//! `(p, k)`-mining system model as the main attack: the adversary's chance
//! of finding the next proof grows with the number of tree positions it
//! mines on.
//!
//! The tree shape is tracked as the number of nodes per depth, capped at the
//! maximal width `f` per depth and the maximal depth `l`, mirroring how the
//! paper bounds the baseline's model (`l = 4`, `f = 5` in Table 1).

use crate::SelfishMiningError;
use sm_mdp::{iterative_gains, CsrMdpBuilder, PositionalStrategy, SolverParallelism};
use std::collections::HashMap;

/// Configuration of the single-tree attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleTreeAttack {
    /// Relative resource of the adversary, `p ∈ [0, 1)`.
    pub p: f64,
    /// Switching probability `γ ∈ [0, 1]`.
    pub gamma: f64,
    /// Maximal depth of the private tree (the paper's `l`).
    pub max_depth: usize,
    /// Maximal number of tree nodes per depth (the paper's tree width `f`).
    pub max_width: usize,
}

/// Result of analysing the single-tree attack.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleTreeResult {
    /// Exact expected relative revenue of the attack.
    pub relative_revenue: f64,
    /// Number of states of the induced Markov chain.
    pub num_states: usize,
}

/// Internal chain state: number of private tree nodes per depth plus the
/// public chain's progress since the fork point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TreeState {
    /// `nodes[q]` = number of tree nodes at depth `q + 1`.
    nodes: Vec<u8>,
    /// Honest blocks mined on the public chain since the fork point.
    honest_progress: u8,
}

impl TreeState {
    fn reset(max_depth: usize) -> Self {
        TreeState {
            nodes: vec![0; max_depth],
            honest_progress: 0,
        }
    }

    /// Depth of the private tree (length of its longest path).
    fn depth(&self) -> usize {
        self.nodes
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |idx| idx + 1)
    }

    /// Number of tree positions the adversary mines on: every node (or the
    /// fork-point block for depth 1) can parent a new child as long as the
    /// width cap of the child depth is not reached.
    fn mining_slots(&self, max_width: usize) -> usize {
        let mut slots = 0;
        for q in 0..self.nodes.len() {
            if (self.nodes[q] as usize) < max_width {
                let parents = if q == 0 {
                    1
                } else {
                    self.nodes[q - 1] as usize
                };
                slots += parents;
            }
        }
        slots
    }
}

impl SingleTreeAttack {
    /// The configuration used in the paper's Table 1: tree depth 4, width 5.
    pub fn paper_configuration(p: f64, gamma: f64) -> Self {
        SingleTreeAttack {
            p,
            gamma,
            max_depth: 4,
            max_width: 5,
        }
    }

    /// Builds the induced Markov chain and computes the exact expected
    /// relative revenue of the attack.
    ///
    /// # Errors
    ///
    /// Returns [`SelfishMiningError::InvalidParameter`] for out-of-range
    /// parameters and propagates chain construction and evaluation errors.
    pub fn analyse(&self) -> Result<SingleTreeResult, SelfishMiningError> {
        self.validate()?;
        let p = self.p;
        let gamma = self.gamma;

        // Reachable-state exploration.
        let mut index_of: HashMap<TreeState, usize> = HashMap::new();
        let mut states: Vec<TreeState> = Vec::new();
        let mut queue: Vec<usize> = Vec::new();
        let initial = TreeState::reset(self.max_depth);
        index_of.insert(initial.clone(), 0);
        states.push(initial);
        queue.push(0);

        // The chain as a one-action MDP, streamed row by row in discovery
        // order, plus the expected per-step rewards of every state.
        let mut builder = CsrMdpBuilder::new();
        let mut adversary_reward: Vec<f64> = Vec::new();
        let mut honest_reward: Vec<f64> = Vec::new();

        let intern = |state: TreeState,
                      states: &mut Vec<TreeState>,
                      index_of: &mut HashMap<TreeState, usize>,
                      queue: &mut Vec<usize>| {
            if let Some(&idx) = index_of.get(&state) {
                return idx;
            }
            let idx = states.len();
            index_of.insert(state.clone(), idx);
            states.push(state);
            queue.push(idx);
            idx
        };

        let mut cursor = 0;
        while cursor < queue.len() {
            let state_index = queue[cursor];
            cursor += 1;
            let state = states[state_index].clone();
            let sigma = state.mining_slots(self.max_width) as f64;
            let denominator = (1.0 - p) + p * sigma;

            let mut row: Vec<(usize, f64)> = Vec::new();
            let mut adv = 0.0;
            let mut hon = 0.0;

            if denominator <= 0.0 {
                // Degenerate case (p = 1 with a saturated tree): self-loop.
                row.push((state_index, 1.0));
            } else {
                // Adversary extends the tree at depth q+1.
                if p > 0.0 {
                    for q in 0..self.max_depth {
                        if (state.nodes[q] as usize) >= self.max_width {
                            continue;
                        }
                        let parents = if q == 0 {
                            1
                        } else {
                            state.nodes[q - 1] as usize
                        };
                        if parents == 0 {
                            continue;
                        }
                        let probability = p * parents as f64 / denominator;
                        let mut next = state.clone();
                        next.nodes[q] += 1;
                        let idx = intern(next, &mut states, &mut index_of, &mut queue);
                        row.push((idx, probability));
                    }
                }
                // Honest miners extend the public chain.
                let honest_probability = (1.0 - p) / denominator;
                if honest_probability > 0.0 {
                    let tree_depth = state.depth();
                    let progress = state.honest_progress as usize + 1;
                    let reset = TreeState::reset(self.max_depth);
                    if tree_depth == 0 {
                        // Nothing private: the honest block simply extends the
                        // chain.
                        let idx = intern(reset, &mut states, &mut index_of, &mut queue);
                        row.push((idx, honest_probability));
                        hon += honest_probability;
                    } else if progress == tree_depth {
                        // The public chain caught up: publish and race.
                        let idx = intern(reset, &mut states, &mut index_of, &mut queue);
                        row.push((idx, honest_probability));
                        adv += honest_probability * gamma * tree_depth as f64;
                        hon += honest_probability * (1.0 - gamma) * progress as f64;
                    } else if tree_depth >= 2 && tree_depth == progress + 1 {
                        // Lead dropped to one: publish the whole path and win
                        // outright (the Eyal–Sirer "publish all" move).
                        let idx = intern(reset, &mut states, &mut index_of, &mut queue);
                        row.push((idx, honest_probability));
                        adv += honest_probability * tree_depth as f64;
                    } else {
                        // Keep withholding.
                        let mut next = state.clone();
                        next.honest_progress = progress as u8;
                        let idx = intern(next, &mut states, &mut index_of, &mut queue);
                        row.push((idx, honest_probability));
                    }
                }
            }

            debug_assert_eq!(builder.num_states(), state_index);
            builder.begin_state();
            builder.add_action("tree", &row)?;
            adversary_reward.push(adv);
            honest_reward.push(hon);
        }

        let num_states = builder.num_states();
        let chain = builder
            .finish(0)?
            .induced_chain(&PositionalStrategy::uniform_first_action(num_states))?;
        // The chain can reach several thousand states for the paper's tree
        // width; fused iterative sweeps (one pass for both reward functions)
        // keep the evaluation cheap.
        let (gains, _) = iterative_gains(
            &chain,
            &[&adversary_reward, &honest_reward],
            None,
            SolverParallelism::serial(),
        )?;
        let (a, h) = (gains[0], gains[1]);
        if a + h <= 0.0 {
            return Err(SelfishMiningError::DegenerateRevenue {
                adversary_gain: a,
                honest_gain: h,
            });
        }
        Ok(SingleTreeResult {
            relative_revenue: a / (a + h),
            num_states: chain.num_states(),
        })
    }

    fn validate(&self) -> Result<(), SelfishMiningError> {
        if !(0.0..1.0).contains(&self.p) || !self.p.is_finite() {
            return Err(SelfishMiningError::InvalidParameter {
                name: "p",
                constraint: "must lie in [0, 1)",
            });
        }
        if !(0.0..=1.0).contains(&self.gamma) || !self.gamma.is_finite() {
            return Err(SelfishMiningError::InvalidParameter {
                name: "gamma",
                constraint: "must lie in [0, 1]",
            });
        }
        // Node counts and honest progress are stored as `u8`.
        for (name, value) in [("max_depth", self.max_depth), ("max_width", self.max_width)] {
            if value == 0 || value > usize::from(u8::MAX) {
                return Err(SelfishMiningError::InvalidParameter {
                    name,
                    constraint: "must lie in 1..=255",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn revenue(p: f64, gamma: f64, depth: usize, width: usize) -> f64 {
        SingleTreeAttack {
            p,
            gamma,
            max_depth: depth,
            max_width: width,
        }
        .analyse()
        .unwrap()
        .relative_revenue
    }

    #[test]
    fn zero_resource_yields_zero_revenue() {
        assert!(revenue(0.0, 0.5, 4, 5) < 1e-12);
    }

    #[test]
    fn revenue_is_monotone_in_gamma() {
        for p in [0.1, 0.2, 0.3] {
            let r0 = revenue(p, 0.0, 4, 5);
            let r5 = revenue(p, 0.5, 4, 5);
            let r1 = revenue(p, 1.0, 4, 5);
            assert!(r0 <= r5 + 1e-9 && r5 <= r1 + 1e-9, "p = {p}");
        }
    }

    #[test]
    fn revenue_is_monotone_in_p() {
        let mut previous = 0.0;
        for step in 0..=6 {
            let p = 0.05 * step as f64;
            let r = revenue(p, 0.5, 4, 5);
            assert!(r >= previous - 1e-9, "revenue should grow with p");
            previous = r;
        }
    }

    #[test]
    fn wider_trees_help_but_stay_below_one() {
        let narrow = revenue(0.3, 0.5, 4, 1);
        let wide = revenue(0.3, 0.5, 4, 5);
        assert!(wide >= narrow - 1e-9);
        assert!(wide < 1.0);
    }

    #[test]
    fn small_adversary_does_worse_than_honest_at_gamma_zero() {
        // With γ = 0 and small p, withholding loses races, so the attack is
        // strictly worse than honest mining — the same qualitative behaviour
        // as the classic PoW analysis.
        let r = revenue(0.1, 0.0, 4, 5);
        assert!(r < 0.1, "got {r}");
    }

    #[test]
    fn paper_configuration_matches_table_setup() {
        let attack = SingleTreeAttack::paper_configuration(0.3, 0.5);
        assert_eq!(attack.max_depth, 4);
        assert_eq!(attack.max_width, 5);
        let result = attack.analyse().unwrap();
        assert!(result.num_states > 10);
        assert!((0.0..1.0).contains(&result.relative_revenue));
    }

    #[test]
    fn paper_configuration_is_pinned_bit_for_bit() {
        // Every row of the chain has distinct targets, so any builder that
        // sorts by target and drops zero probabilities stores the same
        // arrays, and the fused sweeps return the same bits.
        for (p, gamma, revenue_bits) in [
            (0.3, 0.5, 0x3fd4_1207_5f5e_7384_u64),
            (0.1, 0.0, 0x3f97_504f_48a6_5f3b),
            (0.45, 1.0, 0x3fe3_eae4_8e0e_b5b3),
        ] {
            let result = SingleTreeAttack::paper_configuration(p, gamma)
                .analyse()
                .unwrap();
            assert_eq!(
                result.relative_revenue.to_bits(),
                revenue_bits,
                "p = {p}, gamma = {gamma}"
            );
            assert_eq!(result.num_states, 2156, "p = {p}, gamma = {gamma}");
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(SingleTreeAttack {
            p: 1.0,
            gamma: 0.5,
            max_depth: 4,
            max_width: 5
        }
        .analyse()
        .is_err());
        assert!(SingleTreeAttack {
            p: 0.3,
            gamma: -0.1,
            max_depth: 4,
            max_width: 5
        }
        .analyse()
        .is_err());
        assert!(SingleTreeAttack {
            p: 0.3,
            gamma: 0.5,
            max_depth: 0,
            max_width: 5
        }
        .analyse()
        .is_err());
        assert!(SingleTreeAttack {
            p: 0.3,
            gamma: 0.5,
            max_depth: 4,
            max_width: 0
        }
        .analyse()
        .is_err());
        // A width or depth of 256 would overflow the `u8` node counts.
        for (name, depth, width) in [("max_depth", 256, 5), ("max_width", 4, 256)] {
            assert!(matches!(
                SingleTreeAttack {
                    p: 0.3,
                    gamma: 0.5,
                    max_depth: depth,
                    max_width: width
                }
                .analyse(),
                Err(SelfishMiningError::InvalidParameter { name: got, .. }) if got == name
            ));
        }
    }
}
