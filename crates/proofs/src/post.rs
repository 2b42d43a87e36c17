//! Simulated proofs of space and time (PoST), the Chia-style combination of
//! proofs of space with verifiable delay functions.
//!
//! A PoST miner answers a space challenge from its plot and must then run a
//! VDF on top of the block it extends; the number of VDFs it owns therefore
//! bounds how many blocks it can try to extend concurrently — this is the
//! finite `k` of `(p, k)`-mining, and the reason the paper's bounded-fork
//! assumption is most natural for PoST chains.

use crate::pospace::{ProofOfSpace, SpaceProof};
use crate::vdf::{Vdf, VdfProof};
use crate::{Digest, HashTag};

pub(crate) const POST: HashTag = HashTag::new(b"post");

/// A PoST miner: one plot plus a fixed number of VDF processors.
#[derive(Debug, Clone, PartialEq)]
pub struct ProofOfSpaceTime {
    plot: ProofOfSpace,
    vdf: Vdf,
    num_vdfs: usize,
}

/// A combined PoST proof for one block candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct PostProof {
    /// The space component.
    pub space: SpaceProof,
    /// The time (VDF) component, computed over the space proof and challenge.
    pub time: VdfProof,
}

impl ProofOfSpaceTime {
    /// Creates a PoST miner with the given plot seed/size, VDF parameters and
    /// number of VDF processors.
    ///
    /// # Panics
    ///
    /// Panics if `plot_size` or `num_vdfs` is zero or the VDF parameters are
    /// invalid.
    pub fn new(plot_seed: u64, plot_size: usize, vdf_iterations: u64, num_vdfs: usize) -> Self {
        assert!(num_vdfs > 0, "a PoST miner needs at least one VDF");
        ProofOfSpaceTime {
            plot: ProofOfSpace::plot(plot_seed, plot_size),
            vdf: Vdf::new(vdf_iterations, vdf_iterations.div_ceil(8).max(1)),
            num_vdfs,
        }
    }

    /// Number of VDF processors (the paper's `k`): the miner can extend at
    /// most this many blocks concurrently.
    pub fn num_vdfs(&self) -> usize {
        self.num_vdfs
    }

    /// Size of the plot (proxy for the space resource).
    pub fn plot_size(&self) -> usize {
        self.plot.size()
    }

    /// Produces a combined proof for the given challenge, provided a VDF
    /// processor is available.
    ///
    /// `busy_vdfs` is the number of VDFs already committed to other block
    /// candidates; `None` is returned when all processors are busy, which is
    /// exactly the constraint that bounds the attack's forking in PoST chains.
    pub fn prove(&self, challenge: &Digest, busy_vdfs: usize) -> Option<PostProof> {
        if busy_vdfs >= self.num_vdfs {
            return None;
        }
        let space = self.plot.prove(challenge);
        let vdf_input = POST.hash(&[
            &challenge.0,
            &space.value.to_be_bytes(),
            &(space.index as u64).to_be_bytes(),
        ]);
        let time = self.vdf.evaluate(&vdf_input);
        Some(PostProof { space, time })
    }

    /// Verifies a combined proof.
    pub fn verify(&self, challenge: &Digest, proof: &PostProof) -> bool {
        if !self.plot.verify(challenge, &proof.space) {
            return false;
        }
        let vdf_input = POST.hash(&[
            &challenge.0,
            &proof.space.value.to_be_bytes(),
            &(proof.space.index as u64).to_be_bytes(),
        ]);
        self.vdf.verify(&vdf_input, &proof.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_bytes;

    fn miner() -> ProofOfSpaceTime {
        ProofOfSpaceTime::new(11, 64, 32, 2)
    }

    #[test]
    fn proofs_verify_end_to_end() {
        let miner = miner();
        let challenge = hash_bytes(b"tip");
        let proof = miner.prove(&challenge, 0).expect("a free VDF exists");
        assert!(miner.verify(&challenge, &proof));
    }

    #[test]
    fn vdf_budget_limits_parallel_blocks() {
        let miner = miner();
        let challenge = hash_bytes(b"tip");
        assert!(miner.prove(&challenge, 1).is_some());
        assert!(miner.prove(&challenge, 2).is_none());
        assert_eq!(miner.num_vdfs(), 2);
    }

    #[test]
    fn tampered_space_component_fails() {
        let miner = miner();
        let challenge = hash_bytes(b"tip");
        let mut proof = miner.prove(&challenge, 0).unwrap();
        proof.space.value ^= 1;
        assert!(!miner.verify(&challenge, &proof));
    }

    #[test]
    fn proof_is_challenge_specific() {
        let miner = miner();
        let proof = miner.prove(&hash_bytes(b"a"), 0).unwrap();
        assert!(!miner.verify(&hash_bytes(b"b"), &proof));
    }

    #[test]
    #[should_panic(expected = "at least one VDF")]
    fn zero_vdfs_rejected() {
        let _ = ProofOfSpaceTime::new(1, 16, 8, 0);
    }
}
