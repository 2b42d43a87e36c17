//! The discrete-time simulation loop.

use crate::{
    AdversaryAction, AdversaryStrategy, AdversaryView, ArrivalEvent, ArrivalSource,
    BernoulliSource, BlockId, BlockTree, MinerClass, SimulationReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which block positions the adversary mines on, mirroring the MDP-side
/// transition filter of restricted attack scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MiningRegime {
    /// The paper's `(p, k)`-mining: every open position of the fork window —
    /// each non-empty fork plus one fresh fork per root with a free slot.
    #[default]
    AllSlots,
    /// Honest-behaviour mining: only positions rooted at the public tip.
    /// This is the simulator half of the degenerate honest-mining scenario
    /// (`σ = 1`), whose revenue is the proportional share `p`.
    TipOnly,
}

/// Configuration of a simulation run. The parameters mirror the MDP's
/// attack parameters (`AttackParams` in the `selfish-mining` crate) so that
/// computed strategies can be replayed faithfully.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Relative resource of the adversary.
    pub p: f64,
    /// Switching probability for tie races.
    pub gamma: f64,
    /// Attack depth `d`: the adversary only keeps forks rooted at the last `d`
    /// main-chain blocks.
    pub depth: usize,
    /// Fork slots per main-chain block `f`.
    pub forks_per_block: usize,
    /// Maximal private fork length `l`.
    pub max_fork_length: usize,
    /// Number of discrete time steps to simulate.
    pub steps: usize,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// The positions the adversary mines on ([`MiningRegime::AllSlots`]
    /// unless replaying a scenario with a restricted mining split).
    pub mining: MiningRegime,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            p: 0.3,
            gamma: 0.5,
            depth: 2,
            forks_per_block: 1,
            max_fork_length: 4,
            steps: 100_000,
            seed: 42,
            mining: MiningRegime::AllSlots,
        }
    }
}

/// The longest-chain simulator.
#[derive(Debug)]
pub struct Simulator {
    config: SimulationConfig,
}

/// The private forks hanging off one window root: `forks_per_block` slots,
/// each a path of adversary blocks (empty when the slot is free).
#[derive(Debug)]
struct ForkSet {
    root: BlockId,
    chains: Vec<Vec<BlockId>>,
}

/// One run's mutable state, plus the buffers it refills in place every step
/// so that a step allocates nothing once the run has warmed up.
struct Run {
    config: SimulationConfig,
    tree: BlockTree,
    public_tip: BlockId,
    /// The main-chain blocks at depths `1..=d` of the public tip (tip
    /// first; shorter than `d` near genesis). Refilled whenever the tip moves.
    roots: Vec<BlockId>,
    /// One fork set per window root, aligned with `roots`: `forks[i].root ==
    /// roots[i]`. Forks only ever hang off window roots, so this is all the
    /// private state there is.
    forks: Vec<ForkSet>,
    /// Fork sets that fell out of the window, emptied and kept for reuse.
    spare: Vec<ForkSet>,
    /// The adversary's current mining positions as `(depth index, slot)`.
    slots: Vec<(usize, usize)>,
    /// The view handed to the strategy at every decision point.
    view: AdversaryView,
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `gamma` lie outside `[0, 1]` or a structural parameter
    /// is zero.
    pub fn new(config: SimulationConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.p), "p must lie in [0, 1]");
        assert!(
            (0.0..=1.0).contains(&config.gamma),
            "gamma must lie in [0, 1]"
        );
        assert!(config.depth > 0, "depth must be positive");
        assert!(
            config.forks_per_block > 0,
            "forks_per_block must be positive"
        );
        assert!(
            config.max_fork_length > 0,
            "max_fork_length must be positive"
        );
        Simulator { config }
    }

    /// The configuration of this simulator.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Runs the simulation with the given adversary strategy and returns the
    /// measured report.
    ///
    /// Blocks arrive through the ideal [`BernoulliSource`] sharing the
    /// simulation RNG; seeded runs are bit-for-bit identical to the
    /// historical inlined lottery. Use [`Simulator::run_with_source`] to run
    /// on a different arrival realisation (e.g. the proof-backed lottery).
    pub fn run(&self, strategy: &mut dyn AdversaryStrategy) -> SimulationReport {
        // `Simulator::new` already validated `p`, so skip the fallible path.
        self.run_with_source(strategy, &mut BernoulliSource::for_validated(self.config.p))
    }

    /// Runs the simulation with the given adversary strategy, drawing block
    /// arrivals from the given [`ArrivalSource`].
    ///
    /// # Panics
    ///
    /// Panics if the source reports an adversarial position outside
    /// `0..sigma` (a contract violation of the source).
    pub fn run_with_source(
        &self,
        strategy: &mut dyn AdversaryStrategy,
        source: &mut dyn ArrivalSource,
    ) -> SimulationReport {
        let config = self.config;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut run = Run::new(config);

        for _ in 0..config.steps {
            run.fill_slots();
            match source.next_block(&mut rng, run.slots.len()) {
                ArrivalEvent::Adversary { position } => {
                    let (depth, slot) = run.slots[position];
                    run.extend_fork(depth, slot);
                    run.fill_view(false, true);
                    let action = strategy.decide(&run.view);
                    run.apply_action(action, None, &mut rng);
                }
                ArrivalEvent::Honest => {
                    // Honest block found; it is pending until the adversary
                    // reacts.
                    let pending = run.tree.add_block(run.public_tip, MinerClass::Honest);
                    run.fill_view(true, false);
                    let action = strategy.decide(&run.view);
                    run.apply_action(action, Some(pending), &mut rng);
                }
            }
        }

        let (honest, adversary) = run.stable_ownership_counts();
        SimulationReport::new(
            strategy.name().to_string(),
            config.steps,
            honest,
            adversary,
            run.tree.height(run.public_tip),
        )
    }
}

impl Run {
    fn new(config: SimulationConfig) -> Self {
        let tree = BlockTree::new();
        let genesis = tree.genesis();
        let mut run = Run {
            config,
            tree,
            public_tip: genesis,
            roots: Vec::with_capacity(config.depth),
            forks: Vec::with_capacity(config.depth + 1),
            spare: Vec::with_capacity(config.depth + 1),
            slots: Vec::with_capacity(config.depth * config.forks_per_block),
            view: AdversaryView {
                fork_lengths: vec![vec![0; config.forks_per_block]; config.depth],
                owners: vec![MinerClass::Honest; config.depth - 1],
                pending_honest_block: false,
                just_mined: false,
            },
        };
        run.adopt_tip(genesis);
        run
    }

    /// An empty fork set for `root`, reusing a pruned one when available.
    fn fork_set(&mut self, root: BlockId) -> ForkSet {
        match self.spare.pop() {
            Some(set) => ForkSet { root, ..set },
            None => ForkSet {
                root,
                chains: vec![Vec::new(); self.config.forks_per_block],
            },
        }
    }

    /// All positions the adversary currently mines on: every non-empty fork
    /// (extend it) plus, per root with a free slot, one new fork. Under
    /// [`MiningRegime::TipOnly`] only the tip root's positions count.
    fn fill_slots(&mut self) {
        let considered = match self.config.mining {
            MiningRegime::AllSlots => self.forks.len(),
            MiningRegime::TipOnly => self.forks.len().min(1),
        };
        self.slots.clear();
        for (depth, set) in self.forks.iter().take(considered).enumerate() {
            let mut first_empty = None;
            for (slot, chain) in set.chains.iter().enumerate() {
                if !chain.is_empty() {
                    // A saturated fork (length `l`) keeps its position too:
                    // the adversary still occupies the slot, its additional
                    // proofs are simply wasted, mirroring the MDP.
                    self.slots.push((depth, slot));
                } else if first_empty.is_none() {
                    first_empty = Some(slot);
                }
            }
            if let Some(slot) = first_empty {
                self.slots.push((depth, slot));
            }
        }
    }

    fn extend_fork(&mut self, depth: usize, slot: usize) {
        let set = &mut self.forks[depth];
        let chain = &mut set.chains[slot];
        if chain.len() >= self.config.max_fork_length {
            // Saturated: the proof is wasted, mirroring the MDP's min(·, l).
            return;
        }
        let parent = chain.last().copied().unwrap_or(set.root);
        chain.push(self.tree.add_block(parent, MinerClass::Adversary));
    }

    /// Refills the strategy's view from the current forks and window.
    fn fill_view(&mut self, pending_honest_block: bool, just_mined: bool) {
        for (depth, row) in self.view.fork_lengths.iter_mut().enumerate() {
            match self.forks.get(depth) {
                Some(set) => {
                    for (len, chain) in row.iter_mut().zip(&set.chains) {
                        *len = chain.len();
                    }
                }
                None => row.fill(0),
            }
        }
        // Ownership of the tracked main-chain blocks at depths 1..d−1; blocks
        // missing near genesis count as honest (the genesis convention).
        for (depth, owner) in self.view.owners.iter_mut().enumerate() {
            *owner = self
                .roots
                .get(depth)
                .map_or(MinerClass::Honest, |&root| self.tree.owner(root));
        }
        self.view.pending_honest_block = pending_honest_block;
        self.view.just_mined = just_mined;
    }

    fn apply_action(
        &mut self,
        action: AdversaryAction,
        pending: Option<BlockId>,
        rng: &mut StdRng,
    ) {
        match action {
            AdversaryAction::Wait => {
                if let Some(pending) = pending {
                    self.adopt_tip(pending);
                }
            }
            AdversaryAction::Release {
                depth,
                fork,
                length,
            } => {
                match self.peek_release(depth, fork, length) {
                    Some(released_tip) => {
                        let competes_with_pending = pending.is_some();
                        // Published chain height vs the public chain height
                        // (including a pending honest block if any).
                        let published_height = self.tree.height(released_tip);
                        let public_height =
                            self.tree.height(self.public_tip) + u64::from(competes_with_pending);
                        let accepted = published_height > public_height
                            || (published_height == public_height
                                && rng.gen_bool(self.config.gamma));
                        if accepted {
                            // Only now split the fork: the released prefix
                            // becomes public, the remainder re-anchors on the
                            // new tip.
                            self.commit_release(depth, fork, length, released_tip);
                            self.adopt_tip(released_tip);
                        } else if let Some(pending) = pending {
                            // Race lost: the honest block goes through and the
                            // adversary keeps its fork (now rooted one block
                            // deeper), exactly as in the MDP model.
                            self.adopt_tip(pending);
                        }
                        // A rejected release against no pending block leaves
                        // the public tip unchanged.
                    }
                    None => {
                        // Invalid release: treat as Wait.
                        if let Some(pending) = pending {
                            self.adopt_tip(pending);
                        }
                    }
                }
            }
        }
    }

    /// Validates a `(depth, fork, length)` release request and returns the
    /// block that would become the public tip if the release were adopted,
    /// without modifying any state.
    fn peek_release(&self, depth: usize, fork: usize, length: usize) -> Option<BlockId> {
        if depth == 0 || fork == 0 || length == 0 {
            return None;
        }
        let chain = self.forks.get(depth - 1)?.chains.get(fork - 1)?;
        chain.get(length - 1).copied()
    }

    /// Splits an accepted release off its fork: the released prefix leaves the
    /// private-fork bookkeeping and the remainder re-anchors on the released
    /// tip as a fresh private fork in its first slot. The new set goes to the
    /// front, where [`Run::adopt_tip`] expects the new tip's forks.
    fn commit_release(&mut self, depth: usize, fork: usize, length: usize, released_tip: BlockId) {
        let mut set = self.fork_set(released_tip);
        let chain = &mut self.forks[depth - 1].chains[fork - 1];
        set.chains[0].extend_from_slice(&chain[length..]);
        chain.clear();
        self.forks.insert(0, set);
    }

    /// Makes `tip` the new public tip: refills the window roots and realigns
    /// the fork sets with them, pruning the forks whose roots are no longer
    /// within the last `d` blocks of the main chain.
    fn adopt_tip(&mut self, tip: BlockId) {
        self.public_tip = tip;
        self.roots.clear();
        let mut current = Some(tip);
        while self.roots.len() < self.config.depth {
            let Some(block) = current else { break };
            self.roots.push(block);
            current = self.tree.parent(block);
        }
        // Keep the sets whose roots stay in the window (a stable partition:
        // the survivors keep their window order), recycle the rest.
        let mut kept = 0;
        for index in 0..self.forks.len() {
            if self.roots.contains(&self.forks[index].root) {
                self.forks.swap(kept, index);
                kept += 1;
            }
        }
        for mut set in self.forks.drain(kept..) {
            set.chains.iter_mut().for_each(Vec::clear);
            self.spare.push(set);
        }
        // Give every window root without forks an empty set, in place.
        for depth in 0..self.roots.len() {
            let root = self.roots[depth];
            if self.forks.get(depth).map(|set| set.root) != Some(root) {
                let set = self.fork_set(root);
                self.forks.insert(depth, set);
            }
        }
        debug_assert_eq!(self.forks.len(), self.roots.len());
    }

    /// Ownership counts over the *stable* part of the main chain: everything
    /// deeper than the attack window of `d` blocks, genesis excluded.
    fn stable_ownership_counts(&self) -> (u64, u64) {
        let genesis = self.tree.genesis();
        let mut honest = 0;
        let mut adversary = 0;
        let mut current = Some(self.public_tip);
        let mut skipped = 0;
        while let Some(block) = current {
            if skipped < self.config.depth {
                skipped += 1;
            } else if block != genesis {
                match self.tree.owner(block) {
                    MinerClass::Honest => honest += 1,
                    MinerClass::Adversary => adversary += 1,
                }
            }
            current = self.tree.parent(block);
        }
        (honest, adversary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HonestStrategy, Sm1Strategy};

    fn config(p: f64, gamma: f64, steps: usize, seed: u64) -> SimulationConfig {
        SimulationConfig {
            p,
            gamma,
            depth: 2,
            forks_per_block: 1,
            max_fork_length: 4,
            steps,
            seed,
            mining: MiningRegime::AllSlots,
        }
    }

    #[test]
    fn honest_strategy_earns_proportional_share() {
        let report = Simulator::new(config(0.3, 0.5, 60_000, 1)).run(&mut HonestStrategy);
        let revenue = report.relative_revenue();
        assert!(
            (revenue - 0.3).abs() < 0.03,
            "honest revenue {revenue} should be near 0.3"
        );
    }

    #[test]
    fn zero_resource_adversary_never_wins_blocks() {
        let report = Simulator::new(config(0.0, 1.0, 5_000, 2)).run(&mut Sm1Strategy);
        assert_eq!(report.adversary_blocks, 0);
        assert!(report.honest_blocks > 0);
    }

    #[test]
    fn full_resource_adversary_owns_the_chain() {
        let report = Simulator::new(config(1.0, 0.0, 5_000, 3)).run(&mut HonestStrategy);
        assert_eq!(report.honest_blocks, 0);
        assert!(report.adversary_blocks > 0);
    }

    #[test]
    fn sm1_with_high_gamma_beats_honest_share() {
        // With γ = 1 and p = 0.4 the classic attack is clearly profitable.
        let report = Simulator::new(SimulationConfig {
            p: 0.4,
            gamma: 1.0,
            steps: 120_000,
            seed: 11,
            ..SimulationConfig::default()
        })
        .run(&mut Sm1Strategy);
        assert!(
            report.relative_revenue() > 0.42,
            "sm1 revenue {} should exceed the honest share",
            report.relative_revenue()
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = Simulator::new(config(0.3, 0.5, 10_000, 9)).run(&mut Sm1Strategy);
        let b = Simulator::new(config(0.3, 0.5, 10_000, 9)).run(&mut Sm1Strategy);
        assert_eq!(a.honest_blocks, b.honest_blocks);
        assert_eq!(a.adversary_blocks, b.adversary_blocks);
        let c = Simulator::new(config(0.3, 0.5, 10_000, 10)).run(&mut Sm1Strategy);
        assert!(c.honest_blocks != a.honest_blocks || c.adversary_blocks != a.adversary_blocks);
    }

    #[test]
    fn run_is_the_bernoulli_source_run() {
        // `run` must stay bit-for-bit identical to an explicit Bernoulli
        // arrival source: both share the simulation RNG with the same draw
        // sequence.
        let simulator = Simulator::new(config(0.35, 0.5, 20_000, 13));
        let direct = simulator.run(&mut Sm1Strategy);
        let via_source = simulator.run_with_source(
            &mut Sm1Strategy,
            &mut crate::BernoulliSource::new(0.35).unwrap(),
        );
        assert_eq!(direct, via_source);
    }

    #[test]
    fn pow_lottery_source_yields_consistent_honest_share() {
        let simulator = Simulator::new(config(0.3, 0.5, 60_000, 4));
        let mut source = crate::PowLotterySource::new(0.3, 17).unwrap();
        let report = simulator.run_with_source(&mut HonestStrategy, &mut source);
        let revenue = report.relative_revenue();
        assert!(
            (revenue - 0.3).abs() < 0.03,
            "pow-lottery honest revenue {revenue} should be near 0.3"
        );
    }

    #[test]
    fn tip_only_regime_earns_the_proportional_share_for_honest_release() {
        // Under TipOnly mining an immediately-publishing adversary is exactly
        // an honest miner with resource p: no deep positions, no boost from
        // concurrent mining, revenue → p.
        let report = Simulator::new(SimulationConfig {
            mining: MiningRegime::TipOnly,
            ..config(0.3, 0.5, 60_000, 21)
        })
        .run(&mut HonestStrategy);
        let revenue = report.relative_revenue();
        assert!(
            (revenue - 0.3).abs() < 0.02,
            "tip-only honest revenue {revenue} should be near 0.3"
        );
    }

    #[test]
    fn tip_only_regime_restricts_where_private_blocks_land() {
        // A withholding strategy under TipOnly can only ever grow tip forks:
        // the Sm1 single-fork attack still runs, and the run differs from the
        // AllSlots realisation of the same seed.
        let tip = Simulator::new(SimulationConfig {
            mining: MiningRegime::TipOnly,
            ..config(0.4, 0.5, 20_000, 5)
        })
        .run(&mut Sm1Strategy);
        let all = Simulator::new(config(0.4, 0.5, 20_000, 5)).run(&mut Sm1Strategy);
        assert!(tip.adversary_blocks > 0);
        assert_ne!(
            (tip.honest_blocks, tip.adversary_blocks),
            (all.honest_blocks, all.adversary_blocks)
        );
    }

    #[test]
    #[should_panic(expected = "p must lie in [0, 1]")]
    fn invalid_probability_is_rejected() {
        let _ = Simulator::new(SimulationConfig {
            p: 1.5,
            ..SimulationConfig::default()
        });
    }
}
