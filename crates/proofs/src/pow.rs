//! Simulated hashcash-style proof of work.
//!
//! Proof of work is the `(p, 1)`-mining case of the paper's system model; the
//! simulator here exists so the chain simulator and the examples can contrast
//! the PoW and efficient-proof-system regimes with the same code path.

use crate::{Digest, HashTag};

pub(crate) const POW: HashTag = HashTag::new(b"pow");

/// A hashcash puzzle instance: find a nonce such that
/// `H(challenge ‖ miner ‖ nonce)` interpreted as a number is below the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofOfWork {
    /// Upper bound the hash must stay below; smaller targets are harder.
    pub target: u64,
}

/// A successfully mined proof of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowSolution {
    /// The nonce that solves the puzzle.
    pub nonce: u64,
    /// The digest of the winning attempt.
    pub digest: Digest,
}

impl ProofOfWork {
    /// Evaluates one attempt for a given nonce.
    pub fn attempt(&self, challenge: &Digest, miner: u64, nonce: u64) -> Option<PowSolution> {
        let digest = POW.hash(&[&challenge.0, &miner.to_be_bytes(), &nonce.to_be_bytes()]);
        (digest.leading_u64() <= self.target).then_some(PowSolution { nonce, digest })
    }

    /// Grinds nonces `0..max_attempts` and returns the first solution.
    pub fn mine(&self, challenge: &Digest, miner: u64, max_attempts: u64) -> Option<PowSolution> {
        (0..max_attempts).find_map(|nonce| self.attempt(challenge, miner, nonce))
    }

    /// Verifies a claimed solution.
    pub fn verify(&self, challenge: &Digest, miner: u64, solution: &PowSolution) -> bool {
        match self.attempt(challenge, miner, solution.nonce) {
            Some(recomputed) => recomputed.digest == solution.digest,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_bytes;

    /// A puzzle whose success probability per attempt is about
    /// `difficulty⁻¹`.
    fn puzzle(difficulty: u64) -> ProofOfWork {
        ProofOfWork {
            target: u64::MAX / difficulty,
        }
    }

    #[test]
    fn easy_puzzles_are_solved_and_verify() {
        let pow = puzzle(4);
        let challenge = hash_bytes(b"tip");
        let solution = pow.mine(&challenge, 1, 1000).expect("easy puzzle");
        assert!(pow.verify(&challenge, 1, &solution));
        // A different miner id invalidates the solution.
        assert!(!pow.verify(&challenge, 2, &solution));
    }

    #[test]
    fn harder_puzzles_need_more_attempts_on_average() {
        let challenge = hash_bytes(b"tip");
        let easy = puzzle(2);
        let hard = puzzle(64);
        let count = |pow: &ProofOfWork| {
            (0..2000u64)
                .filter(|&nonce| pow.attempt(&challenge, 9, nonce).is_some())
                .count()
        };
        assert!(count(&easy) > count(&hard));
    }

    #[test]
    fn success_rate_tracks_difficulty() {
        let pow = puzzle(10);
        let challenge = hash_bytes(b"rate");
        let trials = 20_000u64;
        let successes = (0..trials)
            .filter(|&nonce| pow.attempt(&challenge, 3, nonce).is_some())
            .count();
        let rate = successes as f64 / trials as f64;
        assert!((rate - 0.1).abs() < 0.02, "rate {rate}");
    }
}
