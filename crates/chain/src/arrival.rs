//! Pluggable block-arrival sources for the simulator.
//!
//! The paper reduces block production in every efficient proof system to the
//! `(p, k)`-mining lottery: when the adversary mines on `σ` positions, the
//! next block is adversarial with probability `pσ / (1 − p + pσ)`. The
//! simulator does not care *how* that lottery is realised, only who produced
//! the block and on which of the adversary's mining positions — which is
//! exactly what [`ArrivalSource`] abstracts.
//!
//! Two realisations live here (the further proof-backed ones — stake, space,
//! space-time and VDF lotteries — live in [`crate::backend`], which also
//! provides the [`crate::ConsensusBackend`] descriptor enumerating all of
//! them):
//!
//! * [`BernoulliSource`] — the ideal lottery, drawn directly from the
//!   simulation's RNG. [`crate::Simulator::run`] uses this source and its
//!   draw sequence is bit-for-bit identical to the historical inlined
//!   lottery, so seeded runs reproduce the pre-refactor results exactly.
//! * [`PowLotterySource`] — a proof-backed lottery built from the dormant
//!   `sm-proofs` crate: every step is one hashcash attempt
//!   ([`sm_proofs::pow::ProofOfWork`]) against a resource-proportional
//!   target, with the challenge evolving through the Bitcoin-like
//!   [`sm_proofs::UnpredictableSchedule`]. Its randomness comes from the
//!   hash chain, not from the simulation RNG, so it is a statistically
//!   independent realisation of the same arrival law — agreement between the
//!   two sources is part of the statistical-conformance check in
//!   `sm-conformance`.

use crate::error::{validate_share, ChainError};
use rand::rngs::StdRng;
use rand::Rng;
use sm_proofs::pow::ProofOfWork;
use sm_proofs::{ChallengeSchedule, Digest, HashTag, UnpredictableSchedule};

/// Producer of the next block, as reported by an [`ArrivalSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalEvent {
    /// Honest miners found the next block (always on the public tip).
    Honest,
    /// The adversary found the next block on its `position`-th mining slot
    /// (an index in `0..sigma`, in the simulator's slot enumeration order).
    Adversary {
        /// Which of the adversary's current mining positions the proof
        /// extends.
        position: usize,
    },
}

/// A realisation of the `(p, k)`-mining block-arrival lottery.
///
/// At every simulated time step the simulator reports how many positions the
/// adversary currently mines on (`sigma`) and the source decides who produces
/// the next block. Implementations must return a `position < sigma` for
/// adversarial events (the simulator indexes its slot list with it) and must
/// be deterministic given their seed and the shared RNG stream.
pub trait ArrivalSource {
    /// Draws the producer of the next block given the adversary's current
    /// number of mining positions `sigma`.
    ///
    /// The simulation's own RNG is passed in so that sources may share its
    /// stream (the Bernoulli source does, preserving historical seeded runs);
    /// sources with their own randomness (the proof-backed lottery) are free
    /// to ignore it.
    fn next_block(&mut self, rng: &mut StdRng, sigma: usize) -> ArrivalEvent;

    /// Human-readable name used in reports and diagnostics.
    fn name(&self) -> &'static str {
        "arrival"
    }
}

/// The ideal Bernoulli lottery of the paper's system model, drawn from the
/// simulation RNG.
///
/// The adversary wins with probability `pσ / (1 − p + pσ)`; a winning draw is
/// attributed uniformly to one of its `σ` positions. The draw sequence —
/// one float for the lottery, one integer for the position on a win — is
/// exactly the sequence the simulator performed before arrival sources
/// existed, so seeded [`crate::Simulator::run`] results are unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliSource {
    p: f64,
}

impl BernoulliSource {
    /// Creates the lottery for an adversary owning a `p` fraction of the
    /// resource.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvalidParameter`] if `p` lies outside `[0, 1]`
    /// or is not finite.
    pub fn new(p: f64) -> Result<Self, ChainError> {
        validate_share("p", p)?;
        Ok(BernoulliSource { p })
    }

    /// Infallible constructor for callers that have already validated `p`
    /// (e.g. [`crate::Simulator::new`] rejects invalid shares up front).
    pub(crate) fn for_validated(p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p));
        BernoulliSource { p }
    }
}

impl ArrivalSource for BernoulliSource {
    fn next_block(&mut self, rng: &mut StdRng, sigma: usize) -> ArrivalEvent {
        let sigma_f = sigma as f64;
        let denominator = (1.0 - self.p) + self.p * sigma_f;
        let adversary_wins =
            denominator > 0.0 && rng.gen_range(0.0..denominator) < self.p * sigma_f;
        if adversary_wins {
            ArrivalEvent::Adversary {
                position: rng.gen_range(0..sigma),
            }
        } else {
            ArrivalEvent::Honest
        }
    }

    fn name(&self) -> &'static str {
        "bernoulli"
    }
}

/// Miner id under which the adversarial coalition grinds its PoW attempts.
const ADVERSARY_MINER: u64 = 0xAD;

// Domain-separation tags heading this module's hash inputs; each midstate is
// computed at compile time.
pub(crate) const ARRIVAL_SLOT: HashTag = HashTag::new(b"arrival-slot");
pub(crate) const ARRIVAL_GENESIS: HashTag = HashTag::new(b"arrival-genesis");
pub(crate) const POW_CERTAIN: HashTag = HashTag::new(b"pow-certain");
pub(crate) const HONEST_BLOCK: HashTag = HashTag::new(b"honest-block");

/// Attributes a winning proof to one of the adversary's `sigma` mining
/// positions, uniformly, by hashing the proof digest. Shared by every
/// proof-backed arrival source (here and in [`crate::backend`]).
pub(crate) fn slot_for(digest: &Digest, sigma: usize) -> usize {
    if sigma > 1 {
        (ARRIVAL_SLOT.hash(&[&digest.0]).leading_u64() % sigma as u64) as usize
    } else {
        0
    }
}

/// A proof-backed arrival lottery: one hashcash attempt per time step.
///
/// Each step the adversary submits one [`ProofOfWork`] attempt whose target
/// is scaled to its momentary lottery weight `pσ / (1 − p + pσ)`; a valid
/// proof yields an adversarial block (the proof digest also selects the
/// mining position), otherwise the step's block is honest. The challenge for
/// the next attempt is derived from the produced block through the
/// unpredictable (Bitcoin-like) schedule, so the adversary cannot grind
/// ahead — the modelling assumption at the heart of the paper.
///
/// The source is fully deterministic given its seed and never touches the
/// simulation RNG, making it an independent realisation of the arrival law
/// for cross-checking the Bernoulli source.
#[derive(Debug, Clone, PartialEq)]
pub struct PowLotterySource {
    p: f64,
    schedule: UnpredictableSchedule,
    challenge: Digest,
    height: u64,
    nonce: u64,
}

impl PowLotterySource {
    /// Creates the proof-backed lottery for resource share `p`, with the
    /// genesis challenge derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvalidParameter`] if `p` lies outside `[0, 1]`
    /// or is not finite.
    pub fn new(p: f64, seed: u64) -> Result<Self, ChainError> {
        validate_share("p", p)?;
        Ok(PowLotterySource {
            p,
            schedule: UnpredictableSchedule,
            challenge: ARRIVAL_GENESIS.hash(&[&seed.to_be_bytes()]),
            height: 0,
            nonce: 0,
        })
    }

    /// Advances the challenge chain past the block described by `digest`.
    fn advance(&mut self, digest: Digest) {
        self.height += 1;
        self.challenge = self.schedule.challenge(&digest, self.height);
    }
}

impl ArrivalSource for PowLotterySource {
    fn next_block(&mut self, _rng: &mut StdRng, sigma: usize) -> ArrivalEvent {
        let sigma_f = sigma as f64;
        let total = (1.0 - self.p) + self.p * sigma_f;
        let ratio = if total > 0.0 {
            (self.p * sigma_f / total).clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.nonce += 1;
        // Degenerate resource splits bypass the hash so the probabilities are
        // exactly 0 and 1 (a u64 target can only approximate them).
        let winning_digest = if ratio <= 0.0 {
            None
        } else if ratio >= 1.0 {
            Some(POW_CERTAIN.hash(&[&self.challenge.0, &self.nonce.to_be_bytes()]))
        } else {
            let puzzle = ProofOfWork {
                target: (ratio * u64::MAX as f64) as u64,
            };
            puzzle
                .attempt(&self.challenge, ADVERSARY_MINER, self.nonce)
                .map(|solution| solution.digest)
        };
        match winning_digest {
            Some(digest) => {
                let position = slot_for(&digest, sigma);
                self.advance(digest);
                ArrivalEvent::Adversary { position }
            }
            None => {
                // The honest block has no ground proof in this abstraction;
                // a synthetic digest keeps the challenge chain unpredictable.
                let digest = HONEST_BLOCK.hash(&[&self.challenge.0, &self.nonce.to_be_bytes()]);
                self.advance(digest);
                ArrivalEvent::Honest
            }
        }
    }

    fn name(&self) -> &'static str {
        "pow-lottery"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn frequency(source: &mut dyn ArrivalSource, sigma: usize, draws: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(7);
        let mut adversary = 0usize;
        for _ in 0..draws {
            if let ArrivalEvent::Adversary { position } = source.next_block(&mut rng, sigma) {
                assert!(position < sigma, "position {position} out of range");
                adversary += 1;
            }
        }
        adversary as f64 / draws as f64
    }

    #[test]
    fn bernoulli_frequency_matches_lottery_law() {
        let p = 0.3;
        let sigma = 3;
        let expected = p * sigma as f64 / (1.0 - p + p * sigma as f64);
        let freq = frequency(&mut BernoulliSource::new(p).unwrap(), sigma, 40_000);
        assert!((freq - expected).abs() < 0.01, "freq {freq} vs {expected}");
    }

    #[test]
    fn pow_lottery_frequency_matches_lottery_law() {
        let p = 0.3;
        let sigma = 3;
        let expected = p * sigma as f64 / (1.0 - p + p * sigma as f64);
        let freq = frequency(&mut PowLotterySource::new(p, 11).unwrap(), sigma, 40_000);
        assert!((freq - expected).abs() < 0.01, "freq {freq} vs {expected}");
    }

    #[test]
    fn sources_handle_degenerate_resource_splits() {
        for source in [
            &mut PowLotterySource::new(0.0, 1).unwrap() as &mut dyn ArrivalSource,
            &mut BernoulliSource::new(0.0).unwrap(),
        ] {
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..200 {
                assert_eq!(source.next_block(&mut rng, 4), ArrivalEvent::Honest);
            }
        }
        for source in [
            &mut PowLotterySource::new(1.0, 1).unwrap() as &mut dyn ArrivalSource,
            &mut BernoulliSource::new(1.0).unwrap(),
        ] {
            let mut rng = StdRng::seed_from_u64(2);
            for _ in 0..200 {
                assert!(matches!(
                    source.next_block(&mut rng, 2),
                    ArrivalEvent::Adversary { .. }
                ));
            }
        }
    }

    #[test]
    fn pow_lottery_is_deterministic_per_seed_and_ignores_the_rng() {
        let draw_all = |seed: u64, rng_seed: u64| {
            let mut source = PowLotterySource::new(0.35, seed).unwrap();
            let mut rng = StdRng::seed_from_u64(rng_seed);
            (0..500)
                .map(|_| source.next_block(&mut rng, 2))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw_all(5, 1), draw_all(5, 99));
        assert_ne!(draw_all(5, 1), draw_all(6, 1));
    }

    #[test]
    fn pow_slot_attribution_covers_all_positions() {
        let mut source = PowLotterySource::new(0.5, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 3];
        for _ in 0..2_000 {
            if let ArrivalEvent::Adversary { position } = source.next_block(&mut rng, 3) {
                seen[position] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "positions hit: {seen:?}");
    }

    #[test]
    fn invalid_shares_are_typed_errors_not_panics() {
        // Fails on the old code, which `assert!`ed instead of returning the
        // shared typed error.
        let expected = ChainError::InvalidParameter {
            name: "p",
            constraint: "must lie in [0, 1]",
        };
        for bad in [1.2, -0.1, f64::NAN, f64::INFINITY] {
            assert_eq!(
                BernoulliSource::new(bad).err(),
                Some(expected),
                "bernoulli p = {bad}"
            );
            assert_eq!(
                PowLotterySource::new(bad, 1).err(),
                Some(expected),
                "pow-lottery p = {bad}"
            );
        }
    }
}
