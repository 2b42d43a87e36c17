//! Statistical conformance between the exact MDP analysis and the
//! operational selfish-mining process.
//!
//! The paper's central claim is that the mean-payoff MDP analysis and the
//! block-level simulation describe the *same* system; this crate turns that
//! claim into a first-class, certifiable artifact. For a solved grid point it
//!
//! 1. compiles the ε-optimal positional strategy into a simulator table
//!    ([`selfish_mining::StrategyExport`]),
//! 2. estimates the strategy's empirical relative revenue with a batched
//!    Monte-Carlo estimator ([`estimate_revenue`]) — many seeded
//!    [`sm_chain::Simulator`] replicas run in replica order, Welford
//!    statistics, a CLT confidence interval and a sequential stopping rule —
//! 3. and compares that confidence interval against the certified
//!    `[β_low, β_up]` revenue bracket of the solve
//!    ([`ConformancePoint`], [`ConformanceReport`]), and across the
//!    scenario family checks restriction dominance and the honest anchor
//!    ([`ConformanceReport::dominance_violations`],
//!    [`ConformanceReport::honest_anchor_violations`]).
//!
//! Replicas can draw block arrivals from any [`ConsensusBackend`]
//! realisation of the arrival lottery — the ideal Bernoulli draw or the
//! proof-backed hashcash, stake, space, space-time and VDF-beacon lotteries
//! of `sm-proofs`; witnessing several backends cross-checks independent
//! realisations of the arrival law against each other *and* against the
//! solver.
//!
//! The `sm-grid` crate drives this machinery across whole grids with
//! durable, resumable per-point artifacts; `examples/grid.rs` runs the
//! coarse Figure-2 grid and the scenario matrix end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod estimator;
mod report;

pub use estimator::{estimate_revenue, Estimate, EstimatorConfig, Z_SCORE};
pub use report::{ConformancePoint, ConformanceReport, DominanceViolation};

use selfish_mining::experiments::CertifiedSolve;
use selfish_mining::{AttackScenario, SelfishMiningError, StrategyExport};
use sm_chain::{ConsensusBackend, MiningRegime, SimulationConfig, UnknownViewPolicy};
use std::error::Error;
use std::fmt;

/// Errors produced by the conformance subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum ConformanceError {
    /// An estimator or settings field violates its constraint.
    InvalidConfig {
        /// Name of the offending field.
        name: &'static str,
        /// Description of the violated constraint.
        constraint: &'static str,
    },
    /// An underlying model-construction or analysis step failed.
    Analysis(SelfishMiningError),
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::InvalidConfig { name, constraint } => {
                write!(
                    f,
                    "conformance config field {name} violates constraint: {constraint}"
                )
            }
            ConformanceError::Analysis(err) => write!(f, "analysis error: {err}"),
        }
    }
}

impl Error for ConformanceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConformanceError::Analysis(err) => Some(err),
            ConformanceError::InvalidConfig { .. } => None,
        }
    }
}

impl From<SelfishMiningError> for ConformanceError {
    fn from(err: SelfishMiningError) -> Self {
        ConformanceError::Analysis(err)
    }
}

/// Numerical slack widening the certificate in the conformance comparison.
/// The solver certifies `[β_low, β_up]` only up to its inner precision (e.g.
/// at `p = 0` it reports `β_low ≈ 2·10⁻¹⁰` where the simulation is exactly
/// 0); the slack absorbs that floating-point noise without masking real
/// disagreement.
pub const CERTIFICATE_SLACK: f64 = 1e-6;

/// Statistical slack widening the certificate in the conformance comparison,
/// on top of [`CERTIFICATE_SLACK`]; half the default stopping tolerance.
///
/// The Dinkelbach solve certifies `β_low` as the *exact* revenue of the
/// witnessed strategy, so the true value sits on the certificate's lower
/// edge and the CI-overlap check is a one-sided test: with an exact variance
/// the miss probability per point-source is `Φ(−z)`, and the finite-replica
/// variance estimate inflates it further (the statistic is t-, not
/// normally-distributed). This margin keeps a multi-hundred-check grid pass
/// reliable without loosening what a real disagreement — typically ≫ the
/// stopping tolerance — looks like.
pub const STATISTICAL_SLACK: f64 = 2e-3;

/// Grid-independent knobs of a conformance pass: everything the Monte-Carlo
/// witness needs except the `(d, f, p, γ)` coordinates, which come from the
/// solved grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceSettings {
    /// Simulated time steps per replica.
    pub steps: usize,
    /// Target half-width of the per-point confidence interval.
    pub tolerance: f64,
    /// Replicas before the stopping rule is first consulted.
    pub min_replicas: usize,
    /// Replicas per stopping-rule round.
    pub batch: usize,
    /// Hard per-point replica budget.
    pub max_replicas: usize,
    /// Master seed; per-point seeds mix in the point's coordinates so that
    /// no two grid points share a replica stream.
    pub master_seed: u64,
    /// The consensus backends to witness each point under.
    pub backends: Vec<ConsensusBackend>,
}

impl Default for ConformanceSettings {
    /// Tuned so a coarse-grid pass stays in tens of seconds while the CLT
    /// interval is a few 10⁻³ wide: 60 000 steps per replica, 3σ intervals,
    /// up to 64 replicas stopping at half-width ≤ 4·10⁻³, witnessed under
    /// the ideal Bernoulli lottery and the proof-backed hashcash lottery
    /// (the historical source pair; widen via
    /// [`ConsensusBackend::default_family`] for the full backend matrix).
    fn default() -> Self {
        ConformanceSettings {
            steps: 60_000,
            tolerance: 4e-3,
            min_replicas: 4,
            batch: 4,
            max_replicas: 64,
            master_seed: 0x5EED_C0DE,
            backends: vec![ConsensusBackend::Bernoulli, ConsensusBackend::PowLottery],
        }
    }
}

impl ConformanceSettings {
    /// The estimator configuration for one `(backend, scenario, d, f, p, γ)`
    /// point. The master seed is mixed with the point's coordinates so every
    /// grid point owns an independent, reproducible replica stream;
    /// non-optimal scenarios additionally fold in their
    /// [`AttackScenario::seed_salt`], and non-Bernoulli backends their
    /// [`ConsensusBackend::seed_salt`], keeping the full backend × scenario
    /// product of streams disjoint while the optimal-scenario Bernoulli
    /// streams stay identical to the pre-scenario subsystem. (The two salt
    /// families live in disjoint `u64` namespaces, so the order-sensitive
    /// folding cannot make a `(scenario, backend)` pair collide with any
    /// other.) Scenarios with a restricted mining split
    /// ([`AttackScenario::restricts_mining_to_tip`]) run their replicas
    /// under the matching simulator [`MiningRegime`].
    #[allow(clippy::too_many_arguments)]
    pub fn estimator_config(
        &self,
        backend: ConsensusBackend,
        scenario: AttackScenario,
        p: f64,
        gamma: f64,
        depth: usize,
        forks: usize,
        max_fork_length: usize,
    ) -> EstimatorConfig {
        let mut seed = self.master_seed;
        for word in [
            p.to_bits(),
            gamma.to_bits(),
            depth as u64,
            forks as u64,
            max_fork_length as u64,
        ] {
            seed = splitmix(seed ^ splitmix(word));
        }
        if scenario != AttackScenario::Optimal {
            seed = splitmix(seed ^ splitmix(scenario.seed_salt()));
        }
        if backend.seed_salt() != 0 {
            seed = splitmix(seed ^ splitmix(backend.seed_salt()));
        }
        let mining = if scenario.restricts_mining_to_tip() {
            MiningRegime::TipOnly
        } else {
            MiningRegime::AllSlots
        };
        EstimatorConfig {
            simulation: SimulationConfig {
                p,
                gamma,
                depth,
                forks_per_block: forks,
                max_fork_length,
                steps: self.steps,
                seed,
                mining,
            },
            tolerance: self.tolerance,
            min_replicas: self.min_replicas,
            batch: self.batch,
            max_replicas: self.max_replicas,
        }
    }
}

/// SplitMix64 finalizer for all seed derivation in this crate (per-point and
/// per-replica streams share one mixer by design).
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Certifies one solved grid point: exports the ε-optimal strategy into the
/// simulator and estimates its revenue under every configured consensus
/// backend.
///
/// The export handle only reads the family's *structure*, so one handle —
/// built via [`StrategyExport::from_family`] (no instantiation at all) or
/// [`StrategyExport::new`] over any `(p, γ)` instantiation — serves every
/// point of its `(scenario, d, f, l)` family; the simulation parameters
/// (including the scenario and its mining regime) come from `solve` itself.
/// The export must be built from the same scenario family the point was
/// solved on — a mismatch is caught by the export's coverage check.
///
/// # Errors
///
/// Propagates export errors ([`SelfishMiningError::InvalidParameter`] for a
/// strategy/model mismatch) and estimator configuration errors.
pub fn certify_point(
    export: &StrategyExport<'_>,
    solve: &CertifiedSolve,
    settings: &ConformanceSettings,
) -> Result<ConformancePoint, ConformanceError> {
    if settings.backends.is_empty() {
        return Err(ConformanceError::InvalidConfig {
            name: "backends",
            constraint: "must name at least one consensus backend",
        });
    }
    // Unknown views wait (and are counted in the report) rather than panic:
    // a replica is allowed to wander where the MDP prunes, and the report
    // surfaces how often that happened.
    let table = export.table_named(
        &solve.strategy,
        UnknownViewPolicy::Wait,
        solve.scenario.label(),
    )?;
    let table_entries = table.len();
    let estimates = settings
        .backends
        .iter()
        .map(|&backend| {
            let config = settings.estimator_config(
                backend,
                solve.scenario,
                solve.p,
                solve.gamma,
                export.depth(),
                export.forks_per_block(),
                export.max_fork_length(),
            );
            estimate_revenue(&config, &table, backend)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ConformancePoint {
        scenario: solve.scenario.label(),
        depth: export.depth(),
        forks: export.forks_per_block(),
        max_fork_length: export.max_fork_length(),
        p: solve.p,
        gamma: solve.gamma,
        certified_lower: solve.beta_low,
        certified_upper: solve.beta_up,
        slack: CERTIFICATE_SLACK + STATISTICAL_SLACK,
        strategy_revenue: solve.strategy_revenue,
        table_entries,
        estimates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfish_mining::experiments::attack_curve;
    use selfish_mining::{AnalysisConfig, ParametricModel};

    #[test]
    fn certify_point_witnesses_a_small_solve() {
        let family = ParametricModel::build(2, 1, 4).unwrap();
        let solves =
            attack_curve(&family, 0.5, &[0.3], AnalysisConfig::with_epsilon(5e-3)).unwrap();
        let settings = ConformanceSettings {
            steps: 30_000,
            max_replicas: 24,
            ..ConformanceSettings::default()
        };
        let point =
            certify_point(&StrategyExport::from_family(&family), &solves[0], &settings).unwrap();
        assert_eq!(point.estimates.len(), 2);
        assert_eq!(point.estimates[0].backend, ConsensusBackend::Bernoulli);
        assert_eq!(point.estimates[1].backend, ConsensusBackend::PowLottery);
        assert_eq!(point.depth, 2);
        assert!(point.table_entries > 0);
        assert!(
            point.conforms(),
            "CI should overlap the certificate: {point:?}"
        );
        assert!(point.sources_agree(), "sources disagree: {point:?}");
    }

    #[test]
    fn per_point_seeds_differ() {
        let settings = ConformanceSettings::default();
        let optimal = AttackScenario::Optimal;
        let bernoulli = ConsensusBackend::Bernoulli;
        let a = settings.estimator_config(bernoulli, optimal, 0.1, 0.5, 2, 1, 4);
        let b = settings.estimator_config(bernoulli, optimal, 0.2, 0.5, 2, 1, 4);
        let c = settings.estimator_config(bernoulli, optimal, 0.1, 0.0, 2, 1, 4);
        assert_ne!(a.simulation.seed, b.simulation.seed);
        assert_ne!(a.simulation.seed, c.simulation.seed);
        // Same coordinates → same seed (reproducibility).
        let again = settings.estimator_config(bernoulli, optimal, 0.1, 0.5, 2, 1, 4);
        assert_eq!(a.simulation.seed, again.simulation.seed);
    }

    #[test]
    fn backend_by_scenario_streams_are_disjoint() {
        // The full backend × scenario product at one grid point: every cell
        // owns its own replica stream, and the Bernoulli column reproduces
        // the historical (backend-less) seeds exactly.
        let settings = ConformanceSettings::default();
        let mut seeds = std::collections::HashMap::new();
        for scenario in AttackScenario::default_family() {
            for backend in ConsensusBackend::default_family() {
                let config = settings.estimator_config(backend, scenario, 0.1, 0.5, 2, 1, 4);
                if let Some(other) = seeds.insert(config.simulation.seed, (backend, scenario)) {
                    panic!("({backend}, {scenario}) shares a replica stream with {other:?}");
                }
            }
        }
        assert_eq!(seeds.len(), 30);
    }

    #[test]
    fn scenario_streams_are_disjoint_and_regimes_match() {
        let settings = ConformanceSettings::default();
        let mut seeds = std::collections::HashSet::new();
        for scenario in AttackScenario::default_family() {
            let config =
                settings.estimator_config(ConsensusBackend::Bernoulli, scenario, 0.1, 0.5, 2, 1, 4);
            assert!(
                seeds.insert(config.simulation.seed),
                "{scenario} shares a replica stream with another scenario"
            );
            let expected = if scenario.restricts_mining_to_tip() {
                MiningRegime::TipOnly
            } else {
                MiningRegime::AllSlots
            };
            assert_eq!(config.simulation.mining, expected, "{scenario}");
        }
    }

    #[test]
    fn empty_backend_list_is_rejected() {
        let family = ParametricModel::build(1, 1, 2).unwrap();
        let solves =
            attack_curve(&family, 0.5, &[0.2], AnalysisConfig::with_epsilon(1e-2)).unwrap();
        let settings = ConformanceSettings {
            backends: vec![],
            ..ConformanceSettings::default()
        };
        assert!(matches!(
            certify_point(&StrategyExport::from_family(&family), &solves[0], &settings),
            Err(ConformanceError::InvalidConfig {
                name: "backends",
                ..
            })
        ));
    }

    #[test]
    fn certify_point_witnesses_a_proof_backed_backend_matrix() {
        // A cheap-backend slice of the matrix: the same solved point
        // conforms under the stake lottery and the VDF beacon too.
        let family = ParametricModel::build(1, 1, 2).unwrap();
        let solves =
            attack_curve(&family, 0.5, &[0.25], AnalysisConfig::with_epsilon(5e-3)).unwrap();
        let settings = ConformanceSettings {
            steps: 20_000,
            max_replicas: 24,
            backends: vec![
                ConsensusBackend::Bernoulli,
                ConsensusBackend::PoStake,
                ConsensusBackend::Vdf,
            ],
            ..ConformanceSettings::default()
        };
        let point =
            certify_point(&StrategyExport::from_family(&family), &solves[0], &settings).unwrap();
        assert_eq!(point.estimates.len(), 3);
        assert!(point.conforms(), "backend matrix misses: {point:?}");
        assert!(point.sources_agree(), "backends disagree: {point:?}");
    }
}
