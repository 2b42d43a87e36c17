//! Simulated proof of stake (the `(p, ∞)`-mining case).
//!
//! A PoStake block producer is elected with probability proportional to its
//! stake. The simulation keeps a stake table and evaluates a deterministic
//! lottery per `(challenge, slot, staker)` triple — enough to drive the chain
//! simulator and to demonstrate why cheap proofs enable mining on many blocks
//! at once (the nothing-at-stake behaviour the paper analyses).

use crate::{Digest, HashTag};

pub(crate) const POSTAKE: HashTag = HashTag::new(b"postake");

/// Identifier of a staker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StakerId(pub usize);

/// A stake distribution over stakers.
#[derive(Debug, Clone, PartialEq)]
pub struct ProofOfStake {
    stakes: Vec<(StakerId, f64)>,
    total_stake: f64,
}

/// An eligibility proof for a staker in a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StakeProof {
    /// The staker the proof belongs to.
    pub staker: StakerId,
    /// The slot (challenge instance) the proof is valid for.
    pub slot: u64,
    /// The lottery value drawn by the staker, in `[0, 1)`.
    pub lottery_value: f64,
}

impl ProofOfStake {
    /// Creates a stake table. Negative stakes are rejected.
    ///
    /// # Panics
    ///
    /// Panics if any stake is negative or not finite.
    pub fn new(stakes: Vec<(StakerId, f64)>) -> Self {
        assert!(
            stakes.iter().all(|&(_, s)| s.is_finite() && s >= 0.0),
            "stakes must be non-negative"
        );
        let total_stake = stakes.iter().map(|&(_, s)| s).sum();
        ProofOfStake {
            stakes,
            total_stake,
        }
    }

    /// Sets the stake of `staker`'s first entry in place (appending an entry
    /// if it has none), so a table whose shares move every slot is updated
    /// instead of rebuilt. The total is recomputed exactly as
    /// [`ProofOfStake::new`] computes it.
    ///
    /// # Panics
    ///
    /// Panics if `stake` is negative or not finite.
    pub fn set_stake(&mut self, staker: StakerId, stake: f64) {
        assert!(
            stake.is_finite() && stake >= 0.0,
            "stakes must be non-negative"
        );
        match self.stakes.iter_mut().find(|(id, _)| *id == staker) {
            Some(entry) => entry.1 = stake,
            None => self.stakes.push((staker, stake)),
        }
        self.total_stake = self.stakes.iter().map(|&(_, s)| s).sum();
    }

    /// The fraction of total stake held by a staker.
    pub fn stake_share(&self, staker: StakerId) -> f64 {
        if self.total_stake <= 0.0 {
            return 0.0;
        }
        self.stakes
            .iter()
            .filter(|&&(id, _)| id == staker)
            .map(|&(_, s)| s)
            .sum::<f64>()
            / self.total_stake
    }

    /// Deterministic per-staker lottery value for a challenge and slot.
    pub fn lottery_value(&self, challenge: &Digest, slot: u64, staker: StakerId) -> f64 {
        POSTAKE
            .hash(&[
                &challenge.0,
                &slot.to_be_bytes(),
                &(staker.0 as u64).to_be_bytes(),
            ])
            .as_unit_interval()
    }

    /// Whether the staker is eligible to produce the block of `slot` under the
    /// given activation threshold `difficulty ∈ [0, 1]`: the staker wins if its
    /// lottery value falls below `difficulty · share`.
    pub fn prove(
        &self,
        challenge: &Digest,
        slot: u64,
        staker: StakerId,
        difficulty: f64,
    ) -> Option<StakeProof> {
        let share = self.stake_share(staker);
        let value = self.lottery_value(challenge, slot, staker);
        (value < difficulty * share).then_some(StakeProof {
            staker,
            slot,
            lottery_value: value,
        })
    }

    /// Verifies a claimed eligibility proof.
    pub fn verify(&self, challenge: &Digest, proof: &StakeProof, difficulty: f64) -> bool {
        let recomputed = self.lottery_value(challenge, proof.slot, proof.staker);
        (recomputed - proof.lottery_value).abs() < f64::EPSILON
            && recomputed < difficulty * self.stake_share(proof.staker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_bytes;

    fn table() -> ProofOfStake {
        ProofOfStake::new(vec![(StakerId(0), 30.0), (StakerId(1), 70.0)])
    }

    #[test]
    fn stake_shares_are_normalised() {
        let pos = table();
        assert!((pos.stake_share(StakerId(0)) - 0.3).abs() < 1e-12);
        assert!((pos.stake_share(StakerId(1)) - 0.7).abs() < 1e-12);
        assert_eq!(pos.stake_share(StakerId(9)), 0.0);
    }

    #[test]
    fn winning_frequency_tracks_stake() {
        let pos = table();
        let challenge = hash_bytes(b"epoch");
        let difficulty = 0.9;
        let slots = 5_000u64;
        let small = (0..slots)
            .filter(|&s| pos.prove(&challenge, s, StakerId(0), difficulty).is_some())
            .count() as f64;
        let large = (0..slots)
            .filter(|&s| pos.prove(&challenge, s, StakerId(1), difficulty).is_some())
            .count() as f64;
        // The larger staker should win roughly 7/3 times as often.
        assert!(large > small * 1.5, "large {large} small {small}");
    }

    #[test]
    fn proofs_verify_and_reject_tampering() {
        let pos = table();
        let challenge = hash_bytes(b"epoch");
        let difficulty = 1.0;
        let slot = (0..10_000u64)
            .find(|&s| pos.prove(&challenge, s, StakerId(1), difficulty).is_some())
            .expect("some slot wins");
        let proof = pos
            .prove(&challenge, slot, StakerId(1), difficulty)
            .unwrap();
        assert!(pos.verify(&challenge, &proof, difficulty));
        let forged = StakeProof {
            lottery_value: proof.lottery_value / 2.0,
            ..proof
        };
        assert!(!pos.verify(&challenge, &forged, difficulty));
    }

    #[test]
    fn set_stake_matches_a_rebuilt_table() {
        let mut pos = table();
        for stake in [0.0, 0.6, 1.2, 30.0] {
            pos.set_stake(StakerId(0), stake);
            let rebuilt = ProofOfStake::new(vec![(StakerId(0), stake), (StakerId(1), 70.0)]);
            assert_eq!(pos, rebuilt);
        }
        pos.set_stake(StakerId(2), 5.0);
        assert!((pos.stake_share(StakerId(2)) - 5.0 / 105.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stake_table_never_wins() {
        let pos = ProofOfStake::new(vec![]);
        let challenge = hash_bytes(b"x");
        assert!(pos.prove(&challenge, 0, StakerId(0), 1.0).is_none());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_stakes_are_rejected() {
        let _ = ProofOfStake::new(vec![(StakerId(0), -1.0)]);
    }
}
