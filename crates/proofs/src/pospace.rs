//! Simulated proofs of space.
//!
//! A proof of space demonstrates that the prover stores a large plot of
//! pre-computed data: on a challenge, the prover looks up the entry of its
//! plot closest to the challenge and the verifier checks the entry belongs to
//! the plot and measures its distance. The simulation reproduces exactly this
//! lookup structure (with the plot generated from a non-cryptographic hash),
//! so the chain simulator exercises the real code path: plot once, answer many
//! challenges cheaply — the property that makes mining on many blocks
//! essentially free and motivates the paper's attack.

use crate::{Digest, HashTag};

pub(crate) const PLOT: HashTag = HashTag::new(b"plot");

/// A plot: `size` pseudo-random points derived from a plot seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProofOfSpace {
    seed: u64,
    points: Vec<u64>,
}

/// A response to a space challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceProof {
    /// Index of the plot entry used to answer.
    pub index: usize,
    /// The plot entry value.
    pub value: u64,
    /// Distance between the entry and the challenge point (smaller is better).
    pub quality: u64,
}

impl ProofOfSpace {
    /// Generates ("plots") `size` points from the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn plot(seed: u64, size: usize) -> Self {
        assert!(size > 0, "plot size must be positive");
        let points = (0..size as u64)
            .map(|i| {
                PLOT.hash(&[&seed.to_be_bytes(), &i.to_be_bytes()])
                    .leading_u64()
            })
            .collect();
        ProofOfSpace { seed, points }
    }

    /// Number of points stored in the plot (a proxy for allocated space).
    pub fn size(&self) -> usize {
        self.points.len()
    }

    /// Answers a challenge with the closest plot point.
    pub fn prove(&self, challenge: &Digest) -> SpaceProof {
        let target = challenge.leading_u64();
        let (index, &value) = self
            .points
            .iter()
            .enumerate()
            .min_by_key(|&(_, &v)| v.abs_diff(target))
            .expect("plot is non-empty");
        SpaceProof {
            index,
            value,
            quality: value.abs_diff(target),
        }
    }

    /// Verifies that a proof indeed refers to an entry of the plot with the
    /// claimed quality.
    pub fn verify(&self, challenge: &Digest, proof: &SpaceProof) -> bool {
        let expected = PLOT
            .hash(&[
                &self.seed.to_be_bytes(),
                &(proof.index as u64).to_be_bytes(),
            ])
            .leading_u64();
        expected == proof.value && proof.quality == proof.value.abs_diff(challenge.leading_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_bytes;

    #[test]
    fn proofs_verify() {
        let plot = ProofOfSpace::plot(7, 128);
        let challenge = hash_bytes(b"c1");
        let proof = plot.prove(&challenge);
        assert!(plot.verify(&challenge, &proof));
        assert!(proof.index < plot.size());
    }

    #[test]
    fn tampered_proofs_are_rejected() {
        let plot = ProofOfSpace::plot(7, 128);
        let challenge = hash_bytes(b"c1");
        let mut proof = plot.prove(&challenge);
        proof.value ^= 1;
        assert!(!plot.verify(&challenge, &proof));
    }

    #[test]
    fn bigger_plots_give_better_quality_on_average() {
        let small = ProofOfSpace::plot(1, 16);
        let big = ProofOfSpace::plot(2, 1024);
        let mut small_total = 0u128;
        let mut big_total = 0u128;
        for i in 0u32..50 {
            let challenge = hash_bytes(&i.to_be_bytes());
            small_total += u128::from(small.prove(&challenge).quality);
            big_total += u128::from(big.prove(&challenge).quality);
        }
        assert!(
            big_total < small_total,
            "bigger plot should answer challenges more closely"
        );
    }

    #[test]
    fn different_seeds_give_different_plots() {
        let a = ProofOfSpace::plot(1, 32);
        let b = ProofOfSpace::plot(2, 32);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "plot size must be positive")]
    fn empty_plot_is_rejected() {
        let _ = ProofOfSpace::plot(1, 0);
    }
}
