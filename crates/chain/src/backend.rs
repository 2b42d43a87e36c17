//! Pluggable consensus backends: every realisation of the `(p, k)`-mining
//! arrival lottery, behind one descriptor.
//!
//! The paper reduces block production in any efficient proof system to the
//! same arrival law — when the adversary mines on `σ` positions the next
//! block is adversarial with probability `pσ / (1 − p + pσ)` — so the solver
//! certificates are statements about that law, not about any particular
//! proof system. The conformance story gains its force from witnessing the
//! certificates against *independent* realisations of the law:
//! [`ConsensusBackend`] enumerates them, and each variant builds a concrete
//! [`ArrivalSource`] from the dormant `sm-proofs` simulators (hashcash PoW,
//! stake lotteries, space proofs, space-time proofs, VDF beacons) next to
//! the ideal Bernoulli draw.
//!
//! A backend is a first-class grid axis, exactly like an attack scenario:
//!
//! * [`ConsensusBackend::label`] / [`ConsensusBackend::from_label`] give the
//!   round-tripping label grammar used by reports, the sweep configuration
//!   and the service's JSONL wire format;
//! * [`ConsensusBackend::seed_salt`] is folded into per-replica seed streams
//!   by the conformance estimator so backend streams are disjoint the way
//!   scenario streams already are (the Bernoulli ideal salts to `0` and is
//!   *not* folded, preserving historical replica streams);
//! * [`ConsensusBackend::source`] builds the arrival source from `(p, seed)`;
//! * [`ConsensusBackend::closed_form_win_probability`] is the per-backend
//!   closed form of the one-step arrival law, the cross-check anchor against
//!   the Bernoulli ideal (the space-time backend genuinely differs: its VDF
//!   budget caps the number of positions the miner can work on);
//! * [`ConsensusBackend::challenge_visibility`] declares whether the
//!   backend's challenge schedule is predictable — a capability consumed at
//!   the model/scenario layer (`selfish_mining::CertificateScope`), because a
//!   predictable schedule admits adversaries outside the memoryless strategy
//!   space the solver optimises over.

use crate::arrival::{slot_for, ArrivalEvent, ArrivalSource, BernoulliSource, PowLotterySource};
use crate::error::{validate_share, ChainError};
use rand::rngs::StdRng;
use sm_proofs::pospace::{ProofOfSpace, SpaceProof};
use sm_proofs::post::ProofOfSpaceTime;
use sm_proofs::postake::{ProofOfStake, StakerId};
use sm_proofs::vdf::Vdf;
use sm_proofs::{ChallengeSchedule, Digest, HashTag, PredictableSchedule, UnpredictableSchedule};
use std::fmt;

/// Whether a backend's challenge schedule lets miners compute future
/// challenges before the blocks they attach to exist.
///
/// The paper's model assumes unpredictable (Bitcoin-like) challenges; under
/// a predictable (Ouroboros-like) schedule the adversary can plan around
/// future lottery outcomes, a strategy space the memoryless solver does not
/// search. Backends declare which regime they realise so the layers above
/// can scope their certificates accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChallengeVisibility {
    /// Challenges derive from the parent block: unknown until it exists.
    Unpredictable,
    /// Challenges are computable ahead of time (epoch randomness, VDF
    /// beacons): the adversary can plan ahead.
    Predictable,
}

/// Descriptor of one realisation of the `(p, k)`-mining arrival lottery.
///
/// The backend is threaded as a grid axis through the conformance
/// estimator, the sweep engine's conformance matrices and the query
/// service's wire format; see the module documentation for the contract of
/// each method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConsensusBackend {
    /// The ideal lottery drawn from the simulation RNG
    /// ([`BernoulliSource`]).
    #[default]
    Bernoulli,
    /// One hashcash attempt per step against a resource-proportional target
    /// ([`PowLotterySource`]).
    PowLottery,
    /// A stake-table eligibility lottery under a predictable epoch schedule
    /// ([`StakeLotterySource`]).
    PoStake,
    /// A proof-of-space quality race between the adversary's and the honest
    /// plot ([`SpaceLotterySource`]).
    PoSpace,
    /// Chia-style proofs of space *and* time: the miner's VDF budget caps
    /// how many of its `σ` positions it can actually extend
    /// ([`PostLotterySource`]).
    Post {
        /// Number of VDF processors the adversarial coalition owns (the
        /// paper's `k`); at most this many positions count per step.
        vdfs: usize,
    },
    /// A sequential VDF beacon sequencing arrivals ([`VdfLotterySource`]).
    Vdf,
}

impl ConsensusBackend {
    /// The canonical label used in reports, sweep configuration and the
    /// JSONL wire format. Round-trips through [`ConsensusBackend::from_label`].
    pub fn label(&self) -> String {
        match *self {
            ConsensusBackend::Bernoulli => "bernoulli".to_string(),
            ConsensusBackend::PowLottery => "pow-lottery".to_string(),
            ConsensusBackend::PoStake => "postake".to_string(),
            ConsensusBackend::PoSpace => "pospace".to_string(),
            ConsensusBackend::Post { vdfs } => format!("post({vdfs})"),
            ConsensusBackend::Vdf => "vdf".to_string(),
        }
    }

    /// Parses a label produced by [`ConsensusBackend::label`]; returns
    /// `None` for anything else (including `post(0)`, which would leave the
    /// space-time miner without a single VDF processor).
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "bernoulli" => Some(ConsensusBackend::Bernoulli),
            "pow-lottery" => Some(ConsensusBackend::PowLottery),
            "postake" => Some(ConsensusBackend::PoStake),
            "pospace" => Some(ConsensusBackend::PoSpace),
            "vdf" => Some(ConsensusBackend::Vdf),
            other => {
                let digits = other.strip_prefix("post(")?.strip_suffix(')')?;
                if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                    return None;
                }
                let vdfs: usize = digits.parse().ok()?;
                (vdfs >= 1).then_some(ConsensusBackend::Post { vdfs })
            }
        }
    }

    /// The default backend family: every shipped realisation, with a
    /// two-VDF budget for the space-time miner.
    pub fn default_family() -> Vec<ConsensusBackend> {
        vec![
            ConsensusBackend::Bernoulli,
            ConsensusBackend::PowLottery,
            ConsensusBackend::PoStake,
            ConsensusBackend::PoSpace,
            ConsensusBackend::Post { vdfs: 2 },
            ConsensusBackend::Vdf,
        ]
    }

    /// Seed-stream salt folded into per-replica seeds by the conformance
    /// estimator, so different backends consume disjoint randomness at the
    /// same grid point — mirroring how scenario streams are separated.
    ///
    /// The Bernoulli ideal salts to `0` and is *not* folded, preserving the
    /// historical replica streams (the same convention
    /// `AttackScenario::Optimal` follows). The high bytes namespace backend
    /// salts away from the small-integer scenario salts, so a
    /// `(scenario, backend)` pair can never collide with a
    /// `(scenario', backend')` pair through fold-order coincidences.
    pub fn seed_salt(&self) -> u64 {
        match *self {
            ConsensusBackend::Bernoulli => 0,
            ConsensusBackend::PowLottery => 0xBAC2_0000_0000_0001,
            ConsensusBackend::PoStake => 0xBAC2_0000_0000_0002,
            ConsensusBackend::PoSpace => 0xBAC2_0000_0000_0003,
            ConsensusBackend::Vdf => 0xBAC2_0000_0000_0004,
            ConsensusBackend::Post { vdfs } => 0xB057_0000_0000_0000 | vdfs as u64,
        }
    }

    /// Whether this backend's challenge schedule is predictable.
    ///
    /// The stake lottery runs on an epoch schedule and the VDF beacon is a
    /// self-advancing sequential computation — both let a miner compute
    /// future challenges in advance. The hash-chained backends (PoW, space,
    /// space-time) and the ideal Bernoulli draw are unpredictable.
    pub fn challenge_visibility(&self) -> ChallengeVisibility {
        match *self {
            ConsensusBackend::PoStake | ConsensusBackend::Vdf => ChallengeVisibility::Predictable,
            ConsensusBackend::Bernoulli
            | ConsensusBackend::PowLottery
            | ConsensusBackend::PoSpace
            | ConsensusBackend::Post { .. } => ChallengeVisibility::Unpredictable,
        }
    }

    /// Convenience predicate over [`ConsensusBackend::challenge_visibility`]:
    /// whether the adversary can plan around future challenges.
    pub fn adversary_can_plan_ahead(&self) -> bool {
        self.challenge_visibility() == ChallengeVisibility::Predictable
    }

    /// Builds the arrival source realising this backend for resource share
    /// `p`, with all backend-local randomness derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvalidParameter`] if `p` lies outside `[0, 1]`
    /// or is not finite, or if a [`ConsensusBackend::Post`] budget is zero.
    pub fn source(&self, p: f64, seed: u64) -> Result<Box<dyn ArrivalSource>, ChainError> {
        validate_share("p", p)?;
        Ok(match *self {
            ConsensusBackend::Bernoulli => Box::new(BernoulliSource::for_validated(p)),
            ConsensusBackend::PowLottery => Box::new(PowLotterySource::new(p, seed)?),
            ConsensusBackend::PoStake => Box::new(StakeLotterySource::new(p, seed)?),
            ConsensusBackend::PoSpace => Box::new(SpaceLotterySource::new(p, seed)?),
            ConsensusBackend::Post { vdfs } => Box::new(PostLotterySource::new(p, seed, vdfs)?),
            ConsensusBackend::Vdf => Box::new(VdfLotterySource::new(p, seed)?),
        })
    }

    /// Closed form of this backend's one-step arrival law: the probability
    /// that the next block is adversarial when the adversary mines on
    /// `sigma` positions with resource share `p`.
    ///
    /// Every backend except the space-time miner realises the ideal law
    /// `pσ / (1 − p + pσ)` exactly; the space-time miner's VDF budget `k`
    /// caps the positions that count, giving
    /// `p·min(σ, k) / (1 − p + p·min(σ, k))` — the one place the resource
    /// model genuinely differs from the Bernoulli ideal.
    ///
    /// ```
    /// use sm_chain::ConsensusBackend;
    ///
    /// let ideal = ConsensusBackend::Bernoulli.closed_form_win_probability(0.3, 3)?;
    /// assert!((ideal - 0.9 / 1.6).abs() < 1e-12);
    /// // Two VDFs cap the three positions down to two:
    /// let capped = ConsensusBackend::Post { vdfs: 2 }.closed_form_win_probability(0.3, 3)?;
    /// assert!((capped - 0.6 / 1.3).abs() < 1e-12);
    /// assert!(capped < ideal);
    /// # Ok::<(), sm_chain::ChainError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvalidParameter`] if `p` lies outside `[0, 1]`
    /// or is not finite.
    pub fn closed_form_win_probability(&self, p: f64, sigma: usize) -> Result<f64, ChainError> {
        validate_share("p", p)?;
        Ok(match *self {
            ConsensusBackend::Post { vdfs } => lottery_win_probability(p, sigma.min(vdfs)),
            _ => lottery_win_probability(p, sigma),
        })
    }
}

impl fmt::Display for ConsensusBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The ideal arrival law `pσ / (1 − p + pσ)`, clamped to `[0, 1]` (and `0`
/// when the denominator degenerates at `p = 1, σ = 0`).
fn lottery_win_probability(p: f64, sigma: usize) -> f64 {
    let sigma_f = sigma as f64;
    let denominator = (1.0 - p) + p * sigma_f;
    if denominator > 0.0 {
        (p * sigma_f / denominator).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Staker id of the adversarial coalition in the stake lottery.
const ADVERSARY_STAKER: StakerId = StakerId(0xAD);
/// Staker id aggregating the honest stake in the stake lottery.
const HONEST_STAKER: StakerId = StakerId(0x40);
/// Epoch length of the stake lottery's predictable challenge schedule.
const STAKE_EPOCH_LENGTH: u64 = 32;
/// Plot size of the space-race and space-time plots. Small enough that a
/// per-step lookup is cheap, large enough to exercise the real plot scan.
const PLOT_SIZE: usize = 32;
/// Sequential iterations of the space-time miner's and the beacon's VDFs.
/// Kept tiny: the arrival law only consumes the output digest, and the
/// conformance estimator evaluates one VDF per simulated step.
const VDF_ITERATIONS: u64 = 8;

// Domain-separation tags heading the backends' hash inputs; each midstate is
// computed at compile time.
const POSTAKE_GENESIS: HashTag = HashTag::new(b"postake-genesis");
const POSTAKE_WIN: HashTag = HashTag::new(b"postake-win");
const POSPACE_GENESIS: HashTag = HashTag::new(b"pospace-genesis");
const POSPACE_ADVERSARY: HashTag = HashTag::new(b"pospace-adversary");
const POSPACE_HONEST: HashTag = HashTag::new(b"pospace-honest");
const POSPACE_WIN: HashTag = HashTag::new(b"pospace-win");
const POSPACE_LOSE: HashTag = HashTag::new(b"pospace-lose");
const POST_GENESIS: HashTag = HashTag::new(b"post-genesis");
const POST_DRAW: HashTag = HashTag::new(b"post-draw");
const POST_LOSE: HashTag = HashTag::new(b"post-lose");
const POST_STALLED: HashTag = HashTag::new(b"post-stalled");
const VDF_GENESIS: HashTag = HashTag::new(b"vdf-genesis");
const VDF_DRAW: HashTag = HashTag::new(b"vdf-draw");

/// A stake-lottery arrival source (the `(p, ∞)`-mining regime).
///
/// Each step elects the producer through a real [`ProofOfStake`] eligibility
/// proof: the adversarial coalition stakes `p·σ` (one unit per mined
/// position — cheap proofs make mining on many blocks free), the honest rest
/// stakes `1 − p`, and the adversary wins the slot iff its hash-uniform
/// lottery value falls below its stake share `pσ / (1 − p + pσ)` — the exact
/// arrival law. Challenges come from the Ouroboros-like
/// [`PredictableSchedule`], so this backend declares
/// [`ChallengeVisibility::Predictable`].
///
/// Deterministic per seed; never touches the simulation RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct StakeLotterySource {
    p: f64,
    schedule: PredictableSchedule,
    genesis: Digest,
    slot: u64,
    /// The stake table, re-staked in place every step: the adversary's
    /// stake follows `σ`.
    table: ProofOfStake,
}

impl StakeLotterySource {
    /// Creates the stake lottery for resource share `p`, with epoch
    /// randomness derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvalidParameter`] if `p` lies outside `[0, 1]`
    /// or is not finite.
    pub fn new(p: f64, seed: u64) -> Result<Self, ChainError> {
        validate_share("p", p)?;
        Ok(StakeLotterySource {
            p,
            schedule: PredictableSchedule::new(STAKE_EPOCH_LENGTH, seed),
            genesis: POSTAKE_GENESIS.hash(&[&seed.to_be_bytes()]),
            slot: 0,
            table: ProofOfStake::new(vec![(ADVERSARY_STAKER, 0.0), (HONEST_STAKER, 1.0 - p)]),
        })
    }
}

impl ArrivalSource for StakeLotterySource {
    fn next_block(&mut self, _rng: &mut StdRng, sigma: usize) -> ArrivalEvent {
        let slot = self.slot;
        self.slot += 1;
        // The schedule ignores the parent by construction (predictability);
        // the genesis digest only keys the per-seed stream.
        let challenge = self.schedule.challenge(&self.genesis, slot);
        self.table
            .set_stake(ADVERSARY_STAKER, self.p * sigma as f64);
        match self.table.prove(&challenge, slot, ADVERSARY_STAKER, 1.0) {
            Some(proof) => {
                debug_assert!(self.table.verify(&challenge, &proof, 1.0));
                let digest = POSTAKE_WIN.hash(&[&challenge.0, &slot.to_be_bytes()]);
                ArrivalEvent::Adversary {
                    position: slot_for(&digest, sigma),
                }
            }
            None => ArrivalEvent::Honest,
        }
    }

    fn name(&self) -> &'static str {
        "postake"
    }
}

/// A proof-of-space arrival source: an exponential quality race between the
/// adversary's plot (weight `p·σ`) and the honest plot (weight `1 − p`).
///
/// Each step both sides answer the challenge from their real
/// [`ProofOfSpace`] plots; the proofs' digests seed two independent
/// uniforms, mapped to exponential arrival times with the respective
/// resource weights. The faster side produces the block, which realises the
/// ideal law `pσ / (1 − p + pσ)` exactly. The challenge chain advances
/// through the Bitcoin-like [`UnpredictableSchedule`] over the produced
/// block, so the adversary cannot grind ahead.
///
/// Deterministic per seed; never touches the simulation RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceLotterySource {
    p: f64,
    adversary_plot: ProofOfSpace,
    honest_plot: ProofOfSpace,
    schedule: UnpredictableSchedule,
    challenge: Digest,
    height: u64,
}

impl SpaceLotterySource {
    /// Creates the space race for resource share `p`, with both plots and
    /// the genesis challenge derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvalidParameter`] if `p` lies outside `[0, 1]`
    /// or is not finite.
    pub fn new(p: f64, seed: u64) -> Result<Self, ChainError> {
        validate_share("p", p)?;
        Ok(SpaceLotterySource {
            p,
            adversary_plot: ProofOfSpace::plot(seed ^ 0xADD1, PLOT_SIZE),
            honest_plot: ProofOfSpace::plot(seed ^ 0x40E5, PLOT_SIZE),
            schedule: UnpredictableSchedule,
            challenge: POSPACE_GENESIS.hash(&[&seed.to_be_bytes()]),
            height: 0,
        })
    }

    /// Hash-uniform draw in `[0, 1)` tied to one side's space proof.
    fn draw(&self, tag: &HashTag, proof: &SpaceProof) -> f64 {
        tag.hash(&[
            &self.challenge.0,
            &proof.value.to_be_bytes(),
            &proof.quality.to_be_bytes(),
        ])
        .as_unit_interval()
    }

    /// Advances the challenge chain past the block described by `digest`.
    fn advance(&mut self, digest: Digest) {
        self.height += 1;
        self.challenge = self.schedule.challenge(&digest, self.height);
    }
}

/// Exponential arrival time for a uniform draw under a resource weight;
/// zero-weight sides never arrive.
fn race_time(weight: f64, uniform: f64) -> f64 {
    if weight > 0.0 {
        -(1.0 - uniform).ln() / weight
    } else {
        f64::INFINITY
    }
}

impl ArrivalSource for SpaceLotterySource {
    fn next_block(&mut self, _rng: &mut StdRng, sigma: usize) -> ArrivalEvent {
        let adversary_proof = self.adversary_plot.prove(&self.challenge);
        let honest_proof = self.honest_plot.prove(&self.challenge);
        debug_assert!(self
            .adversary_plot
            .verify(&self.challenge, &adversary_proof));
        let adversary_time = race_time(
            self.p * sigma as f64,
            self.draw(&POSPACE_ADVERSARY, &adversary_proof),
        );
        let honest_time = race_time(1.0 - self.p, self.draw(&POSPACE_HONEST, &honest_proof));
        // Honest wins ties (measure zero): a degenerate double-infinity at
        // p = 1, σ = 0 must not mint adversarial blocks from nothing.
        if adversary_time < honest_time {
            let digest =
                POSPACE_WIN.hash(&[&self.challenge.0, &adversary_proof.value.to_be_bytes()]);
            self.advance(digest);
            ArrivalEvent::Adversary {
                position: slot_for(&digest, sigma),
            }
        } else {
            let digest = POSPACE_LOSE.hash(&[&self.challenge.0, &honest_proof.value.to_be_bytes()]);
            self.advance(digest);
            ArrivalEvent::Honest
        }
    }

    fn name(&self) -> &'static str {
        "pospace"
    }
}

/// A Chia-style space-time arrival source: the miner's VDF budget caps how
/// many of its `σ` positions it can extend concurrently.
///
/// Each step the miner produces one real combined [`ProofOfSpaceTime`]
/// proof (plot lookup + sequential VDF); the VDF output seeds the lottery
/// uniform, thresholded at `p·σ′ / (1 − p + p·σ′)` where
/// `σ′ = min(σ, num_vdfs)` — the bounded-`k` arrival law. This is the one
/// backend whose resource model genuinely differs from the Bernoulli ideal:
/// whenever the attack strategy mines on more positions than the miner has
/// VDF processors, the surplus positions are dead weight.
///
/// Deterministic per seed; never touches the simulation RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct PostLotterySource {
    p: f64,
    miner: ProofOfSpaceTime,
    schedule: UnpredictableSchedule,
    challenge: Digest,
    height: u64,
}

impl PostLotterySource {
    /// Creates the space-time lottery for resource share `p` and a miner
    /// owning `vdfs` VDF processors, all randomness derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvalidParameter`] if `p` lies outside `[0, 1]`
    /// or is not finite, or if `vdfs` is zero.
    pub fn new(p: f64, seed: u64, vdfs: usize) -> Result<Self, ChainError> {
        validate_share("p", p)?;
        if vdfs == 0 {
            return Err(ChainError::InvalidParameter {
                name: "vdfs",
                constraint: "must be at least 1",
            });
        }
        Ok(PostLotterySource {
            p,
            miner: ProofOfSpaceTime::new(seed, PLOT_SIZE, VDF_ITERATIONS, vdfs),
            schedule: UnpredictableSchedule,
            challenge: POST_GENESIS.hash(&[&seed.to_be_bytes()]),
            height: 0,
        })
    }

    /// Advances the challenge chain past the block described by `digest`.
    fn advance(&mut self, digest: Digest) {
        self.height += 1;
        self.challenge = self.schedule.challenge(&digest, self.height);
    }
}

impl ArrivalSource for PostLotterySource {
    fn next_block(&mut self, _rng: &mut StdRng, sigma: usize) -> ArrivalEvent {
        // The VDF budget is the paper's k: only min(σ, k) positions can be
        // worked on (`ProofOfSpaceTime::prove` returns None once all
        // processors are busy, which is what makes the cap real).
        let workable = sigma.min(self.miner.num_vdfs());
        let ratio = lottery_win_probability(self.p, workable);
        match self.miner.prove(&self.challenge, 0) {
            Some(proof) => {
                debug_assert!(self.miner.verify(&self.challenge, &proof));
                let uniform = POST_DRAW
                    .hash(&[&self.challenge.0, &proof.time.output.0])
                    .as_unit_interval();
                if uniform < ratio {
                    let digest = proof.time.output;
                    self.advance(digest);
                    ArrivalEvent::Adversary {
                        position: slot_for(&digest, workable),
                    }
                } else {
                    let digest = POST_LOSE.hash(&[&self.challenge.0, &proof.time.output.0]);
                    self.advance(digest);
                    ArrivalEvent::Honest
                }
            }
            // Unreachable (the constructor guarantees at least one free
            // VDF at busy_vdfs = 0), kept total instead of panicking.
            None => {
                let digest = POST_STALLED.hash(&[&self.challenge.0]);
                self.advance(digest);
                ArrivalEvent::Honest
            }
        }
    }

    fn name(&self) -> &'static str {
        "post"
    }
}

/// A VDF-sequenced arrival source: a self-advancing sequential beacon draws
/// the lottery.
///
/// Each step evaluates a real [`Vdf`] on the beacon state; the output
/// digest both becomes the next beacon state and seeds the lottery uniform,
/// thresholded at the ideal law `pσ / (1 − p + pσ)`. Because the beacon
/// advances independently of which blocks get produced, the entire schedule
/// is computable in advance — this backend declares
/// [`ChallengeVisibility::Predictable`].
///
/// Deterministic per seed; never touches the simulation RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct VdfLotterySource {
    p: f64,
    vdf: Vdf,
    beacon: Digest,
}

impl VdfLotterySource {
    /// Creates the beacon lottery for resource share `p`, with the initial
    /// beacon state derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvalidParameter`] if `p` lies outside `[0, 1]`
    /// or is not finite.
    pub fn new(p: f64, seed: u64) -> Result<Self, ChainError> {
        validate_share("p", p)?;
        Ok(VdfLotterySource {
            p,
            vdf: Vdf::new(VDF_ITERATIONS, VDF_ITERATIONS),
            beacon: VDF_GENESIS.hash(&[&seed.to_be_bytes()]),
        })
    }
}

impl ArrivalSource for VdfLotterySource {
    fn next_block(&mut self, _rng: &mut StdRng, sigma: usize) -> ArrivalEvent {
        let proof = self.vdf.evaluate(&self.beacon);
        debug_assert!(self.vdf.verify(&self.beacon, &proof));
        self.beacon = proof.output;
        let uniform = VDF_DRAW.hash(&[&proof.output.0]).as_unit_interval();
        if uniform < lottery_win_probability(self.p, sigma) {
            ArrivalEvent::Adversary {
                position: slot_for(&proof.output, sigma),
            }
        } else {
            ArrivalEvent::Honest
        }
    }

    fn name(&self) -> &'static str {
        "vdf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The `frequency` harness of the arrival tests, generalised over the
    /// backend descriptor: builds the source from `(p, seed)` and measures
    /// the empirical adversarial-arrival frequency.
    fn frequency(backend: ConsensusBackend, p: f64, sigma: usize, draws: usize) -> f64 {
        let mut source = backend.source(p, 11).expect("valid share");
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
    fn every_tag_midstate_resumes_hash_concat() {
        use crate::arrival::{ARRIVAL_GENESIS, ARRIVAL_SLOT, HONEST_BLOCK, POW_CERTAIN};
        use sm_proofs::hash_concat;
        let tags = [
            ARRIVAL_SLOT,
            ARRIVAL_GENESIS,
            POW_CERTAIN,
            HONEST_BLOCK,
            POSTAKE_GENESIS,
            POSTAKE_WIN,
            POSPACE_GENESIS,
            POSPACE_ADVERSARY,
            POSPACE_HONEST,
            POSPACE_WIN,
            POSPACE_LOSE,
            POST_GENESIS,
            POST_DRAW,
            POST_LOSE,
            POST_STALLED,
            VDF_GENESIS,
            VDF_DRAW,
        ];
        let mut rng = StdRng::seed_from_u64(0x7A65);
        for tag in tags {
            for _ in 0..16 {
                let mut digest = [0u8; 32];
                for chunk in digest.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&rand::Rng::next_u64(&mut rng).to_be_bytes());
                }
                let word = rand::Rng::next_u64(&mut rng).to_be_bytes();
                let rest: [&[u8]; 2] = [&digest, &word];
                assert_eq!(
                    tag.hash(&rest),
                    hash_concat(&[tag.tag(), &digest, &word]),
                    "tag {:?}",
                    tag.tag()
                );
                assert_eq!(tag.hash(&rest[..1]), hash_concat(&[tag.tag(), &digest]));
            }
        }
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        let mut family = ConsensusBackend::default_family();
        family.push(ConsensusBackend::Post { vdfs: 1 });
        family.push(ConsensusBackend::Post { vdfs: 17 });
        for backend in family {
            assert_eq!(
                ConsensusBackend::from_label(&backend.label()),
                Some(backend),
                "label {} does not round-trip",
                backend.label()
            );
        }
        for junk in [
            "",
            "Bernoulli",
            "bernoulli ",
            "pow",
            "post",
            "post()",
            "post(0)",
            "post(-1)",
            "post(+2)",
            "post(two)",
            "post(2",
            "vdf(3)",
        ] {
            assert_eq!(
                ConsensusBackend::from_label(junk),
                None,
                "junk label {junk:?} parsed"
            );
        }
    }

    #[test]
    fn seed_salts_are_distinct_and_bernoulli_is_zero() {
        assert_eq!(ConsensusBackend::Bernoulli.seed_salt(), 0);
        let mut family = ConsensusBackend::default_family();
        family.push(ConsensusBackend::Post { vdfs: 1 });
        family.push(ConsensusBackend::Post { vdfs: 3 });
        let mut salts: Vec<u64> = family.iter().map(ConsensusBackend::seed_salt).collect();
        salts.sort_unstable();
        salts.dedup();
        assert_eq!(salts.len(), family.len(), "salts collide");
    }

    #[test]
    fn every_backend_matches_its_closed_form_frequency() {
        let p = 0.3;
        let sigma = 3;
        for backend in ConsensusBackend::default_family() {
            let expected = backend.closed_form_win_probability(p, sigma).unwrap();
            let freq = frequency(backend, p, sigma, 40_000);
            assert!(
                (freq - expected).abs() < 0.01,
                "{backend}: freq {freq} vs closed form {expected}"
            );
        }
    }

    #[test]
    fn only_the_vdf_budget_bends_the_law_away_from_the_ideal() {
        let p = 0.3;
        let sigma = 3;
        let ideal = ConsensusBackend::Bernoulli
            .closed_form_win_probability(p, sigma)
            .unwrap();
        for backend in ConsensusBackend::default_family() {
            let law = backend.closed_form_win_probability(p, sigma).unwrap();
            match backend {
                ConsensusBackend::Post { vdfs } if vdfs < sigma => {
                    assert!(law < ideal, "{backend}: capped law should fall short")
                }
                _ => assert!(
                    (law - ideal).abs() < 1e-15,
                    "{backend}: law {law} vs ideal {ideal}"
                ),
            }
        }
        // With enough VDFs the space-time law coincides with the ideal.
        let roomy = ConsensusBackend::Post { vdfs: 8 }
            .closed_form_win_probability(p, sigma)
            .unwrap();
        assert!((roomy - ideal).abs() < 1e-15);
    }

    #[test]
    fn every_backend_handles_degenerate_resource_splits() {
        for backend in ConsensusBackend::default_family() {
            let mut none = backend.source(0.0, 1).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..200 {
                assert_eq!(
                    none.next_block(&mut rng, 4),
                    ArrivalEvent::Honest,
                    "{backend} minted at p = 0"
                );
            }
            let mut all = backend.source(1.0, 1).unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            for _ in 0..200 {
                assert!(
                    matches!(all.next_block(&mut rng, 2), ArrivalEvent::Adversary { .. }),
                    "{backend} lost a block at p = 1"
                );
            }
        }
    }

    #[test]
    fn proof_backed_sources_are_deterministic_and_ignore_the_rng() {
        for backend in ConsensusBackend::default_family() {
            if backend == ConsensusBackend::Bernoulli {
                continue; // shares the simulation RNG by design
            }
            let draw_all = |seed: u64, rng_seed: u64| {
                let mut source = backend.source(0.35, seed).unwrap();
                let mut rng = StdRng::seed_from_u64(rng_seed);
                (0..300)
                    .map(|_| source.next_block(&mut rng, 2))
                    .collect::<Vec<_>>()
            };
            assert_eq!(draw_all(5, 1), draw_all(5, 99), "{backend} reads the RNG");
            assert_ne!(draw_all(5, 1), draw_all(6, 1), "{backend} ignores its seed");
        }
    }

    #[test]
    fn post_budget_caps_workable_positions() {
        // One VDF: every adversarial block must sit on position 0 even when
        // the strategy mines on four positions, and the frequency follows
        // the capped law (σ′ = 1), not the ideal (σ = 4).
        let backend = ConsensusBackend::Post { vdfs: 1 };
        let p = 0.3;
        let sigma = 4;
        let mut source = backend.source(p, 11).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2_000 {
            if let ArrivalEvent::Adversary { position } = source.next_block(&mut rng, sigma) {
                assert_eq!(position, 0, "budget of one VDF allows only position 0");
            }
        }
        let capped = backend.closed_form_win_probability(p, sigma).unwrap();
        assert!((capped - p).abs() < 1e-15, "σ′ = 1 reduces the law to p");
        let freq = frequency(backend, p, sigma, 40_000);
        assert!((freq - capped).abs() < 0.01, "freq {freq} vs {capped}");
    }

    #[test]
    fn predictable_backends_declare_the_planning_capability() {
        use ChallengeVisibility::{Predictable, Unpredictable};
        let expectations = [
            (ConsensusBackend::Bernoulli, Unpredictable),
            (ConsensusBackend::PowLottery, Unpredictable),
            (ConsensusBackend::PoStake, Predictable),
            (ConsensusBackend::PoSpace, Unpredictable),
            (ConsensusBackend::Post { vdfs: 2 }, Unpredictable),
            (ConsensusBackend::Vdf, Predictable),
        ];
        for (backend, visibility) in expectations {
            assert_eq!(backend.challenge_visibility(), visibility, "{backend}");
            assert_eq!(
                backend.adversary_can_plan_ahead(),
                visibility == Predictable
            );
        }
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        let bad_share = ChainError::InvalidParameter {
            name: "p",
            constraint: "must lie in [0, 1]",
        };
        for backend in ConsensusBackend::default_family() {
            assert_eq!(
                backend.source(1.5, 1).err(),
                Some(bad_share),
                "{backend} accepted p = 1.5"
            );
        }
        assert!(matches!(
            ConsensusBackend::PoStake.source(f64::NAN, 1),
            Err(ChainError::InvalidParameter { name: "p", .. })
        ));
        assert!(matches!(
            ConsensusBackend::Bernoulli.closed_form_win_probability(-0.2, 3),
            Err(ChainError::InvalidParameter { name: "p", .. })
        ));
        assert_eq!(
            PostLotterySource::new(0.3, 1, 0),
            Err(ChainError::InvalidParameter {
                name: "vdfs",
                constraint: "must be at least 1",
            })
        );
    }
}
