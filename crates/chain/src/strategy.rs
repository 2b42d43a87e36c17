//! Adversary strategies for the chain simulator.

use crate::MinerClass;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The adversary's view of the simulation at a decision point, expressed in
/// the same vocabulary as the selfish-mining MDP state: private fork lengths
/// per (depth, slot), ownership of the tracked main-chain blocks, and whether
/// a freshly found honest block is pending.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdversaryView {
    /// `fork_lengths[i][j]` is the length of the `j`-th private fork rooted at
    /// the main-chain block at depth `i + 1`.
    pub fork_lengths: Vec<Vec<usize>>,
    /// `owners[i]` is the producer of the main-chain block at depth `i + 1`
    /// (the MDP's ownership vector `O`, covering depths `1..d−1`).
    pub owners: Vec<MinerClass>,
    /// Whether an honest block was just found and awaits incorporation.
    pub pending_honest_block: bool,
    /// Whether the adversary just extended one of its forks.
    pub just_mined: bool,
}

impl AdversaryView {
    /// Total number of withheld blocks.
    pub fn total_private_blocks(&self) -> usize {
        self.fork_lengths.iter().flatten().sum()
    }
}

/// A decision of the adversary at a decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdversaryAction {
    /// Keep all forks private and continue mining.
    Wait,
    /// Publish the first `length` blocks of fork `(depth, fork)` (1-based, as
    /// in the MDP action `release_{i,j,k}`).
    Release {
        /// Root depth of the fork to publish.
        depth: usize,
        /// Slot index of the fork at that depth.
        fork: usize,
        /// Number of blocks to publish.
        length: usize,
    },
}

/// A selfish-mining strategy driving the adversary in the simulator.
pub trait AdversaryStrategy {
    /// Chooses an action for the given view.
    fn decide(&mut self, view: &AdversaryView) -> AdversaryAction;

    /// Human-readable name used in reports.
    fn name(&self) -> &str {
        "adversary"
    }

    /// Number of decision points this strategy had no explicit policy for
    /// (0 for strategies that are total by construction). Table-backed
    /// strategies report their fallback hits here so that conformance runs
    /// can surface coverage gaps between the MDP and the simulator.
    fn unknown_views(&self) -> u64 {
        0
    }
}

/// The honest baseline: publish every block immediately, never withhold.
///
/// In the simulator this is realised by releasing a depth-1 fork of length 1
/// as soon as it exists and never mining on deeper blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HonestStrategy;

impl AdversaryStrategy for HonestStrategy {
    fn decide(&mut self, view: &AdversaryView) -> AdversaryAction {
        if view.just_mined {
            if let Some(row) = view.fork_lengths.first() {
                if let Some((fork, &len)) = row.iter().enumerate().find(|&(_, &len)| len > 0) {
                    // Publish the freshly mined tip block right away.
                    return AdversaryAction::Release {
                        depth: 1,
                        fork: fork + 1,
                        length: len,
                    };
                }
            }
        }
        AdversaryAction::Wait
    }

    fn name(&self) -> &str {
        "honest"
    }
}

/// The classic Eyal–Sirer selfish-mining strategy restricted to a single
/// private chain on the tip: withhold; when an honest block arrives, match it
/// (tie race) if the lead is exactly one, publish everything if the lead is
/// exactly two, otherwise keep withholding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sm1Strategy;

impl AdversaryStrategy for Sm1Strategy {
    fn decide(&mut self, view: &AdversaryView) -> AdversaryAction {
        if !view.pending_honest_block {
            return AdversaryAction::Wait;
        }
        let lead = view
            .fork_lengths
            .first()
            .and_then(|row| row.first())
            .copied()
            .unwrap_or(0);
        match lead {
            0 => AdversaryAction::Wait,
            // Tie race against the pending honest block.
            1 => AdversaryAction::Release {
                depth: 1,
                fork: 1,
                length: 1,
            },
            // Lead of two: publish everything and win outright.
            2 => AdversaryAction::Release {
                depth: 1,
                fork: 1,
                length: 2,
            },
            // Large lead: publish just enough to stay ahead by one... the
            // classic strategy publishes one block; within the simulator's
            // fork abstraction publishing a strict prefix keeps the remainder
            // private, which matches the original attack.
            _ => AdversaryAction::Release {
                depth: 1,
                fork: 1,
                length: 2,
            },
        }
    }

    fn name(&self) -> &str {
        "single-fork selfish mining"
    }
}

/// What a [`TableStrategy`] does when asked to decide a view it has no entry
/// for.
///
/// A table compiled from an MDP strategy covers every view the MDP reaches;
/// a miss therefore either means the simulator wandered into territory the
/// model prunes (benign, but worth counting) or that the two implementations
/// disagree on the state space (a bug). The policy makes that choice
/// explicit instead of silently waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnknownViewPolicy {
    /// Play [`AdversaryAction::Wait`] and count the miss (see
    /// [`TableStrategy::unknown_views`]). The default, and what conformance
    /// runs use: the run completes and the report surfaces the coverage gap.
    #[default]
    Wait,
    /// Panic with the offending view. For strict certification debugging
    /// where any coverage gap must abort immediately.
    Panic,
}

/// The hasher of [`TableStrategy`] lookups: one multiply-rotate round per
/// word (the `FxHash` construction). Views are a handful of small integers
/// and never adversarial input, so SipHash's per-lookup setup and
/// flooding resistance buy nothing on the simulator's per-step lookup.
#[derive(Debug, Clone, Copy, Default)]
struct ViewHasher(u64);

impl ViewHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for ViewHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.add(u64::from_le_bytes(buf));
        }
        for &byte in words.remainder() {
            self.add(u64::from(byte));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A strategy defined by an explicit lookup table from views to actions, with
/// an explicit [`UnknownViewPolicy`] for views without an entry.
///
/// `selfish_mining::StrategyExport` compiles the ε-optimal positional
/// strategy computed by the MDP analysis into such a table; the conformance
/// subsystem replays it in the simulator to cross-validate the two
/// implementations.
#[derive(Debug, Clone, Default)]
pub struct TableStrategy {
    table: HashMap<AdversaryView, AdversaryAction, BuildHasherDefault<ViewHasher>>,
    name: String,
    policy: UnknownViewPolicy,
    unknown_views: u64,
}

impl TableStrategy {
    /// Creates a table strategy with the given name and the default
    /// [`UnknownViewPolicy::Wait`] fallback.
    pub fn new(name: impl Into<String>) -> Self {
        TableStrategy::with_policy(name, UnknownViewPolicy::default())
    }

    /// Creates a table strategy with the given name and unknown-view policy.
    pub fn with_policy(name: impl Into<String>, policy: UnknownViewPolicy) -> Self {
        TableStrategy {
            table: HashMap::default(),
            name: name.into(),
            policy,
            unknown_views: 0,
        }
    }

    /// Registers the action to play in a view.
    pub fn insert(&mut self, view: AdversaryView, action: AdversaryAction) {
        self.table.insert(view, action);
    }

    /// Number of views with an explicit entry.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The policy applied to views without an entry.
    pub fn policy(&self) -> UnknownViewPolicy {
        self.policy
    }

    /// Number of decisions that fell through to the unknown-view policy since
    /// construction (or the last [`TableStrategy::reset_unknown_views`]).
    pub fn unknown_views(&self) -> u64 {
        self.unknown_views
    }

    /// Resets the unknown-view counter, e.g. between simulation runs sharing
    /// one table.
    pub fn reset_unknown_views(&mut self) {
        self.unknown_views = 0;
    }
}

impl AdversaryStrategy for TableStrategy {
    fn decide(&mut self, view: &AdversaryView) -> AdversaryAction {
        match self.table.get(view) {
            Some(&action) => action,
            None => match self.policy {
                UnknownViewPolicy::Wait => {
                    self.unknown_views += 1;
                    AdversaryAction::Wait
                }
                UnknownViewPolicy::Panic => {
                    panic!(
                        "table strategy '{}' has no entry for view {view:?}",
                        self.name
                    )
                }
            },
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn unknown_views(&self) -> u64 {
        self.unknown_views
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(lengths: Vec<Vec<usize>>, pending: bool, mined: bool) -> AdversaryView {
        AdversaryView {
            fork_lengths: lengths,
            owners: vec![MinerClass::Honest],
            pending_honest_block: pending,
            just_mined: mined,
        }
    }

    #[test]
    fn honest_strategy_publishes_immediately() {
        let mut honest = HonestStrategy;
        let action = honest.decide(&view(vec![vec![1]], false, true));
        assert_eq!(
            action,
            AdversaryAction::Release {
                depth: 1,
                fork: 1,
                length: 1
            }
        );
        assert_eq!(
            honest.decide(&view(vec![vec![0]], false, true)),
            AdversaryAction::Wait
        );
        assert_eq!(
            honest.decide(&view(vec![vec![1]], true, false)),
            AdversaryAction::Wait
        );
        assert_eq!(honest.name(), "honest");
    }

    #[test]
    fn sm1_races_on_tie_and_publishes_on_lead_two() {
        let mut sm1 = Sm1Strategy;
        assert_eq!(
            sm1.decide(&view(vec![vec![0]], true, false)),
            AdversaryAction::Wait
        );
        assert_eq!(
            sm1.decide(&view(vec![vec![1]], true, false)),
            AdversaryAction::Release {
                depth: 1,
                fork: 1,
                length: 1
            }
        );
        assert_eq!(
            sm1.decide(&view(vec![vec![2]], true, false)),
            AdversaryAction::Release {
                depth: 1,
                fork: 1,
                length: 2
            }
        );
        assert_eq!(
            sm1.decide(&view(vec![vec![3]], false, false)),
            AdversaryAction::Wait
        );
    }

    #[test]
    fn table_strategy_falls_back_to_wait() {
        let mut table = TableStrategy::new("from-mdp");
        assert!(table.is_empty());
        let v = view(vec![vec![2]], true, false);
        table.insert(
            v.clone(),
            AdversaryAction::Release {
                depth: 1,
                fork: 1,
                length: 2,
            },
        );
        assert_eq!(table.len(), 1);
        assert_eq!(
            table.decide(&v),
            AdversaryAction::Release {
                depth: 1,
                fork: 1,
                length: 2
            }
        );
        assert_eq!(
            table.decide(&view(vec![vec![4]], true, false)),
            AdversaryAction::Wait
        );
        assert_eq!(table.name(), "from-mdp");
        assert_eq!(table.unknown_views(), 1);
        assert_eq!(AdversaryStrategy::unknown_views(&table), 1);
        table.reset_unknown_views();
        assert_eq!(table.unknown_views(), 0);
    }

    #[test]
    fn known_views_do_not_count_as_unknown() {
        let mut table = TableStrategy::with_policy("strict", UnknownViewPolicy::Wait);
        let v = view(vec![vec![1]], true, false);
        table.insert(v.clone(), AdversaryAction::Wait);
        assert_eq!(table.policy(), UnknownViewPolicy::Wait);
        let _ = table.decide(&v);
        assert_eq!(table.unknown_views(), 0);
    }

    #[test]
    #[should_panic(expected = "has no entry for view")]
    fn panic_policy_aborts_on_unknown_views() {
        let mut table = TableStrategy::with_policy("strict", UnknownViewPolicy::Panic);
        let _ = table.decide(&view(vec![vec![1]], true, false));
    }

    #[test]
    fn builtin_strategies_are_total() {
        assert_eq!(AdversaryStrategy::unknown_views(&HonestStrategy), 0);
        assert_eq!(AdversaryStrategy::unknown_views(&Sm1Strategy), 0);
    }

    #[test]
    fn view_counts_private_blocks() {
        let v = view(vec![vec![2, 1], vec![0, 3]], false, false);
        assert_eq!(v.total_private_blocks(), 6);
    }
}
