//! Simulated efficient proof systems and the `(p, k)`-mining abstraction.
//!
//! The selfish-mining analysis of the PODC 2024 paper abstracts the underlying
//! consensus primitive into `(p, k)`-mining: a miner holding a `p` fraction of
//! the resource and able to work on `k` blocks at once finds the next proof
//! with probability proportional to `p · k`. This crate provides
//! *simulated* concrete proof systems that exercise the same code paths the
//! real systems would (challenge derivation, proof generation, verification)
//! without any cryptographic hardness; the `sm-chain` arrival sources build
//! their `(p, k)`-mining lotteries on them:
//!
//! * [`pow::ProofOfWork`] — hashcash-style proof of work (the `(p, 1)` case).
//! * [`postake::ProofOfStake`] — a stake lottery (the `(p, ∞)` case).
//! * [`pospace::ProofOfSpace`] — plot-based proofs of space.
//! * [`vdf::Vdf`] — an iterated-hash verifiable delay function.
//! * [`post::ProofOfSpaceTime`] — proofs of space and time (PoSpace + VDF),
//!   the `(p, k)` case with `k` bounded by the number of VDFs.
//! * [`challenge`] — unpredictable (Bitcoin-like) vs predictable
//!   (Ouroboros-like) challenge derivation, the distinction at the heart of
//!   the paper's model.
//!
//! The substitution of real cryptography by a deterministic non-cryptographic
//! hash is documented in `DESIGN.md`: the analysis and the simulator only
//! depend on the induced *probabilities*, not on the hardness of the proofs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod challenge;
mod hash;
pub mod pospace;
pub mod post;
pub mod postake;
pub mod pow;
pub mod vdf;

pub use challenge::{ChallengeSchedule, PredictableSchedule, UnpredictableSchedule};
pub use hash::{hash_bytes, hash_concat, Digest, HashTag};
