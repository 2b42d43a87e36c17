//! Challenge derivation schedules: unpredictable (Bitcoin-like) versus
//! predictable (Ouroboros-like).
//!
//! The paper's central modelling choice is that the blockchain is
//! *unpredictable*: the challenge for the block at depth `i + 1` is derived
//! from the block at depth `i`, so an adversary cannot know in advance when it
//! will be eligible to produce blocks. The alternative, used by predictable
//! protocols, fixes the challenge randomness for a long window of consecutive
//! blocks. Both schedules are provided so the chain simulator can be run in
//! either regime (the predictable regime is used by an ablation experiment).

use crate::{Digest, HashTag};

pub(crate) const CHALLENGE: HashTag = HashTag::new(b"challenge");
pub(crate) const PREDICTABLE_CHALLENGE: HashTag = HashTag::new(b"predictable-challenge");

/// A rule for deriving the proof-system challenge of the next block.
pub trait ChallengeSchedule {
    /// Challenge for the block extending `parent` at the given height.
    fn challenge(&self, parent: &Digest, height: u64) -> Digest;

    /// Whether a miner can predict challenges for blocks it has not yet seen
    /// the parents of.
    fn is_predictable(&self) -> bool;
}

/// Bitcoin-like unpredictable schedule: the challenge is a hash of the parent
/// block, so it is only known once the parent exists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnpredictableSchedule;

impl ChallengeSchedule for UnpredictableSchedule {
    fn challenge(&self, parent: &Digest, height: u64) -> Digest {
        CHALLENGE.hash(&[&parent.0, &height.to_be_bytes()])
    }

    fn is_predictable(&self) -> bool {
        false
    }
}

/// Ouroboros-like predictable schedule: the challenge only depends on the
/// epoch (a window of `epoch_length` consecutive heights) and a fixed seed, so
/// a miner can compute all challenges of the current epoch in advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictableSchedule {
    /// Number of consecutive blocks sharing the same challenge randomness.
    pub epoch_length: u64,
    /// Seed fixed at the start of the epoch (e.g. from an earlier beacon).
    pub seed: u64,
}

impl PredictableSchedule {
    /// Creates a schedule with the given epoch length and seed.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_length` is zero.
    pub fn new(epoch_length: u64, seed: u64) -> Self {
        assert!(epoch_length > 0, "epoch length must be positive");
        PredictableSchedule { epoch_length, seed }
    }
}

impl ChallengeSchedule for PredictableSchedule {
    fn challenge(&self, _parent: &Digest, height: u64) -> Digest {
        let epoch = height / self.epoch_length;
        PREDICTABLE_CHALLENGE.hash(&[
            &self.seed.to_be_bytes(),
            &epoch.to_be_bytes(),
            &(height % self.epoch_length).to_be_bytes(),
        ])
    }

    fn is_predictable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_bytes;

    #[test]
    fn unpredictable_challenges_depend_on_parent() {
        let schedule = UnpredictableSchedule;
        let parent_a = hash_bytes(b"a");
        let parent_b = hash_bytes(b"b");
        assert_ne!(
            schedule.challenge(&parent_a, 10),
            schedule.challenge(&parent_b, 10)
        );
        assert_eq!(
            schedule.challenge(&parent_a, 10),
            schedule.challenge(&parent_a, 10)
        );
        assert!(!schedule.is_predictable());
    }

    #[test]
    fn predictable_challenges_ignore_parent_within_epoch() {
        let schedule = PredictableSchedule::new(32, 7);
        let parent_a = hash_bytes(b"a");
        let parent_b = hash_bytes(b"b");
        assert_eq!(
            schedule.challenge(&parent_a, 5),
            schedule.challenge(&parent_b, 5)
        );
        assert!(schedule.is_predictable());
    }

    #[test]
    fn predictable_challenges_change_across_heights_and_epochs() {
        let schedule = PredictableSchedule::new(4, 7);
        let parent = hash_bytes(b"a");
        assert_ne!(
            schedule.challenge(&parent, 0),
            schedule.challenge(&parent, 1)
        );
        assert_ne!(
            schedule.challenge(&parent, 3),
            schedule.challenge(&parent, 4)
        );
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_epoch_length_is_rejected() {
        let _ = PredictableSchedule::new(0, 1);
    }
}
