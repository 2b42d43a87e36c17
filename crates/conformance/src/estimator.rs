//! The batched Monte-Carlo revenue estimator.
//!
//! Replicas are independent seeded [`Simulator`] runs; their relative
//! revenues stream into a Welford mean/variance accumulator that feeds a CLT
//! confidence interval. A sequential stopping rule runs batches of replicas
//! until the interval half-width drops below the tolerance or the replica
//! budget is exhausted. Replica `i`'s seeds are a pure function of the
//! master seed and `i`, and the accumulator folds the per-replica results in
//! replica order, so an estimate is a pure function of its config. The
//! estimator starts no threads: parallelism belongs to the caller's job
//! budget (the grid runner fans whole points out over
//! [`selfish_mining::run_budgeted_jobs`]).
//!
//! Replicas draw block arrivals from any [`ConsensusBackend`] realisation:
//! the ideal Bernoulli lottery or one of the proof-backed lotteries from
//! `sm-proofs` (hashcash, stake, space, space-time, VDF beacon).

use crate::ConformanceError;
use selfish_mining::SelfishMiningError;
use sm_chain::{AdversaryStrategy, ConsensusBackend, SimulationConfig, Simulator};

/// Normal quantile scaling every confidence interval (3.0 ≈ 99.7 %
/// two-sided): the stopping rule ends a run once `Z_SCORE · σ̂ / √n ≤
/// tolerance`, and the reported half-width is `Z_SCORE · σ̂ / √n`.
pub const Z_SCORE: f64 = 3.0;

/// Configuration of the Monte-Carlo estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// Per-replica simulation parameters. `simulation.seed` is the **master
    /// seed**: replica `i` derives its simulation and arrival-source seeds
    /// from it by deterministic mixing, so one config describes the entire
    /// replica family.
    pub simulation: SimulationConfig,
    /// Target half-width of the confidence interval: the sequential stopping
    /// rule ends the run once `Z_SCORE · σ̂ / √n ≤ tolerance` ([`Z_SCORE`]).
    pub tolerance: f64,
    /// Replicas to run before the stopping rule is first consulted (at least
    /// 2 are always run — the variance estimate needs them).
    pub min_replicas: usize,
    /// Replicas per stopping-rule round. Batching keeps the stopping
    /// decision a function of replica *count* only, which the determinism
    /// guarantee relies on.
    pub batch: usize,
    /// Hard replica budget; the estimate is flagged unconverged when the
    /// budget is exhausted before the tolerance is met.
    pub max_replicas: usize,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            simulation: SimulationConfig::default(),
            tolerance: 4e-3,
            min_replicas: 4,
            batch: 4,
            max_replicas: 64,
        }
    }
}

impl EstimatorConfig {
    fn validate(&self) -> Result<(), ConformanceError> {
        if !self.tolerance.is_finite() || self.tolerance <= 0.0 {
            return Err(ConformanceError::InvalidConfig {
                name: "tolerance",
                constraint: "must be finite and positive",
            });
        }
        if self.batch == 0 {
            return Err(ConformanceError::InvalidConfig {
                name: "batch",
                constraint: "must be positive",
            });
        }
        if self.max_replicas < 2 {
            return Err(ConformanceError::InvalidConfig {
                name: "max_replicas",
                constraint: "must be at least 2 (the variance estimate needs two replicas)",
            });
        }
        // An inconsistent floor is a config error, not something to clamp
        // away silently: a caller asking for fewer than 2 replicas would get
        // a variance-less estimate, and a floor above the budget can never be
        // honoured.
        if self.min_replicas < 2 {
            return Err(ConformanceError::InvalidConfig {
                name: "min_replicas",
                constraint: "must be at least 2 (the variance estimate needs two replicas)",
            });
        }
        if self.min_replicas > self.max_replicas {
            return Err(ConformanceError::InvalidConfig {
                name: "min_replicas",
                constraint: "must not exceed max_replicas",
            });
        }
        // Reject everything `Simulator::new` asserts on up front with a typed
        // error, so a bad config never reaches a replica's panic.
        let simulation = &self.simulation;
        for (name, value) in [
            ("simulation.p", simulation.p),
            ("simulation.gamma", simulation.gamma),
        ] {
            if sm_chain::validate_share(name, value).is_err() {
                return Err(ConformanceError::InvalidConfig {
                    name,
                    constraint: "must lie in [0, 1]",
                });
            }
        }
        for (name, value) in [
            ("simulation.depth", simulation.depth),
            ("simulation.forks_per_block", simulation.forks_per_block),
            ("simulation.max_fork_length", simulation.max_fork_length),
        ] {
            if value == 0 {
                return Err(ConformanceError::InvalidConfig {
                    name,
                    constraint: "must be positive",
                });
            }
        }
        Ok(())
    }
}

/// A Monte-Carlo estimate of the expected relative revenue with its CLT
/// confidence interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The consensus backend whose arrival realisation the replicas ran on.
    pub backend: ConsensusBackend,
    /// Sample mean of the per-replica relative revenues.
    pub mean: f64,
    /// Unbiased sample variance of the per-replica relative revenues.
    pub variance: f64,
    /// Half-width of the confidence interval, `z · σ̂ / √n`.
    pub half_width: f64,
    /// Number of replicas that contributed.
    pub replicas: usize,
    /// Simulated steps per replica.
    pub steps_per_replica: usize,
    /// Whether the stopping rule met the tolerance within the budget.
    pub converged: bool,
    /// Total decision points across all replicas for which the strategy had
    /// no explicit policy (0 for a table that covers everything the
    /// simulator reaches).
    pub unknown_views: u64,
}

impl Estimate {
    /// Lower end of the confidence interval.
    pub fn lower(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper end of the confidence interval.
    pub fn upper(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether the confidence interval overlaps `[lower, upper]`.
    pub fn overlaps(&self, lower: f64, upper: f64) -> bool {
        self.lower() <= upper && lower <= self.upper()
    }

    /// Whether two estimates' confidence intervals overlap.
    pub fn agrees_with(&self, other: &Estimate) -> bool {
        self.overlaps(other.lower(), other.upper())
    }

    /// Distance between the confidence interval and `[lower, upper]`: 0 if
    /// and only if [`Estimate::overlaps`] holds, the positive separation
    /// otherwise, and `+∞` when either interval has a NaN endpoint (a
    /// non-finite estimate can never witness a certificate).
    ///
    /// The historical fold `(lower - upper()).max(lower() - upper).max(0.0)`
    /// silently absorbed NaN — [`f64::max`] returns the other operand when
    /// one side is NaN — so a NaN Monte-Carlo mean reported a gap of `0`
    /// while [`Estimate::overlaps`] was `false`, breaking the "0 iff
    /// conforms" contract of `ConformancePoint::worst_gap`.
    pub fn gap_to(&self, lower: f64, upper: f64) -> f64 {
        if self.overlaps(lower, upper) {
            return 0.0;
        }
        let gap = (lower - self.upper()).max(self.lower() - upper);
        // Non-overlapping finite intervals have a strictly positive gap; a
        // NaN endpoint (no overlap by IEEE comparison, NaN arithmetic here)
        // maps to +∞ so the verdict and the gap can never disagree.
        if gap.is_nan() {
            f64::INFINITY
        } else {
            gap
        }
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default)]
struct Welford {
    count: usize,
    mean: f64,
    m2: f64,
}

impl Welford {
    fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// CLT half-width `Z_SCORE · σ̂ / √n` of the accumulated sample — the
    /// one expression both the stopping rule and the final estimate use.
    fn half_width(&self) -> f64 {
        Z_SCORE * (self.variance() / self.count as f64).sqrt()
    }
}

/// The two seeds of replica `index`: one for the simulation RNG, one for the
/// arrival source. Pure in `(master, index)`, which is what makes the
/// estimator deterministic.
fn replica_seeds(master: u64, index: usize) -> (u64, u64) {
    let base = crate::splitmix(master ^ crate::splitmix(2 * index as u64));
    (
        base,
        crate::splitmix(master ^ crate::splitmix(2 * index as u64 + 1)),
    )
}

/// One replica's contribution: its relative revenue and the number of
/// unknown-view fallbacks its strategy hit.
fn run_replica<S>(
    config: &EstimatorConfig,
    strategy: &S,
    backend: ConsensusBackend,
    index: usize,
) -> Result<(f64, u64), ConformanceError>
where
    S: AdversaryStrategy + Clone,
{
    let (sim_seed, source_seed) = replica_seeds(config.simulation.seed, index);
    let simulator = Simulator::new(SimulationConfig {
        seed: sim_seed,
        ..config.simulation
    });
    let mut replica_strategy = strategy.clone();
    // The clone inherits the prototype's miss counter (e.g. from a prior run
    // of the same table); report only the misses this replica adds.
    let baseline_misses = replica_strategy.unknown_views();
    let mut source = backend
        .source(config.simulation.p, source_seed)
        .map_err(SelfishMiningError::from)?;
    let report = simulator.run_with_source(&mut replica_strategy, source.as_mut());
    Ok((
        report.relative_revenue(),
        replica_strategy.unknown_views() - baseline_misses,
    ))
}

/// Estimates the expected relative revenue of `strategy` under the given
/// backend's arrival realisation.
///
/// Replicas run in batches of [`EstimatorConfig::batch`]; after each batch
/// the CLT interval is recomputed and the run stops once its half-width
/// reaches [`EstimatorConfig::tolerance`] (sequential stopping rule) or
/// [`EstimatorConfig::max_replicas`] is exhausted. Replicas run one after
/// another in replica order, so the returned estimate is a pure function of
/// the config and its master seed.
///
/// # Errors
///
/// Returns [`ConformanceError::InvalidConfig`] for non-finite or
/// non-positive tolerances and z-scores, an empty batch, a replica budget
/// below 2, a replica floor below 2 or above the budget, a resource share
/// `simulation.p` or a propagation advantage `simulation.gamma` outside
/// `[0, 1]` (NaN included), or a zero `simulation.depth`,
/// `simulation.forks_per_block` or `simulation.max_fork_length` — every
/// case [`Simulator::new`] would otherwise panic on. (The historical code
/// silently clamped an inconsistent `min_replicas` into range instead of
/// rejecting the config.) Backend construction errors (e.g. a zero-VDF
/// space-time budget) propagate as [`ConformanceError::Analysis`].
pub fn estimate_revenue<S>(
    config: &EstimatorConfig,
    strategy: &S,
    backend: ConsensusBackend,
) -> Result<Estimate, ConformanceError>
where
    S: AdversaryStrategy + Clone,
{
    config.validate()?;
    let mut welford = Welford::default();
    let mut unknown_views = 0u64;
    let mut converged = false;
    let mut next_index = 0usize;
    while next_index < config.max_replicas {
        let round = config.batch.min(config.max_replicas - next_index);
        for index in next_index..next_index + round {
            let (revenue, misses) = run_replica(config, strategy, backend, index)?;
            welford.push(revenue);
            unknown_views += misses;
        }
        next_index += round;
        if welford.count >= config.min_replicas && welford.half_width() <= config.tolerance {
            converged = true;
            break;
        }
    }
    Ok(Estimate {
        backend,
        mean: welford.mean,
        variance: welford.variance(),
        half_width: welford.half_width(),
        replicas: welford.count,
        steps_per_replica: config.simulation.steps,
        converged,
        unknown_views,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_chain::HonestStrategy;

    fn config(p: f64, steps: usize, seed: u64) -> EstimatorConfig {
        EstimatorConfig {
            simulation: SimulationConfig {
                p,
                steps,
                seed,
                ..SimulationConfig::default()
            },
            ..EstimatorConfig::default()
        }
    }

    #[test]
    fn honest_estimate_converges_to_p() {
        let estimate = estimate_revenue(
            &config(0.3, 20_000, 1),
            &HonestStrategy,
            ConsensusBackend::Bernoulli,
        )
        .unwrap();
        assert!(estimate.replicas >= 4);
        assert!(estimate.half_width > 0.0);
        assert!(
            (estimate.mean - 0.3).abs() <= estimate.half_width + 5e-3,
            "mean {} vs 0.3 (hw {})",
            estimate.mean,
            estimate.half_width
        );
        assert_eq!(estimate.unknown_views, 0);
        assert_eq!(estimate.backend, ConsensusBackend::Bernoulli);
    }

    #[test]
    fn an_unmet_tolerance_spends_the_budget_through_a_partial_last_batch() {
        // A tolerance no run meets forces the full budget; with batches of 3
        // the budget of 10 ends on a partial batch of one replica.
        let estimate = estimate_revenue(
            &EstimatorConfig {
                tolerance: 1e-12,
                max_replicas: 10,
                batch: 3,
                ..config(0.25, 5_000, 77)
            },
            &HonestStrategy,
            ConsensusBackend::PowLottery,
        )
        .unwrap();
        assert!(!estimate.converged);
        assert_eq!(estimate.replicas, 10);
    }

    #[test]
    fn degenerate_resource_has_zero_variance_and_converges_immediately() {
        let estimate = estimate_revenue(
            &config(0.0, 2_000, 3),
            &HonestStrategy,
            ConsensusBackend::Bernoulli,
        )
        .unwrap();
        assert_eq!(estimate.mean, 0.0);
        assert_eq!(estimate.variance, 0.0);
        assert_eq!(estimate.half_width, 0.0);
        assert!(estimate.converged);
        assert_eq!(estimate.replicas, 4);
    }

    #[test]
    fn interval_helpers_are_consistent() {
        let estimate = Estimate {
            backend: ConsensusBackend::Bernoulli,
            mean: 0.3,
            variance: 1e-6,
            half_width: 0.01,
            replicas: 8,
            steps_per_replica: 1000,
            converged: true,
            unknown_views: 0,
        };
        assert!(estimate.overlaps(0.29, 0.295));
        assert!(estimate.overlaps(0.305, 0.4));
        assert!(!estimate.overlaps(0.32, 0.4));
        assert_eq!(estimate.gap_to(0.29, 0.295), 0.0);
        assert!((estimate.gap_to(0.35, 0.4) - 0.04).abs() < 1e-12);
        let other = Estimate {
            mean: 0.305,
            ..estimate.clone()
        };
        assert!(estimate.agrees_with(&other));
    }

    #[test]
    fn stale_prototype_miss_counters_are_not_double_counted() {
        use sm_chain::{AdversaryStrategy as _, AdversaryView, TableStrategy};
        let cfg = config(0.3, 2_000, 9);
        // An empty table misses (and counts) every decision point.
        let fresh = TableStrategy::new("empty");
        let clean = estimate_revenue(&cfg, &fresh, ConsensusBackend::Bernoulli).unwrap();
        assert!(clean.unknown_views > 0);
        // A prototype whose counter was dirtied before the run must report
        // the same per-replica misses, not the inherited baseline on top.
        let mut dirty = TableStrategy::new("empty");
        for _ in 0..7 {
            let _ = dirty.decide(&AdversaryView {
                fork_lengths: vec![vec![9]],
                owners: vec![],
                pending_honest_block: true,
                just_mined: false,
            });
        }
        let dirtied = estimate_revenue(&cfg, &dirty, ConsensusBackend::Bernoulli).unwrap();
        assert_eq!(clean, dirtied);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad_tol = EstimatorConfig {
            tolerance: 0.0,
            ..config(0.3, 100, 1)
        };
        assert!(estimate_revenue(&bad_tol, &HonestStrategy, ConsensusBackend::Bernoulli).is_err());
        let bad_batch = EstimatorConfig {
            batch: 0,
            ..config(0.3, 100, 1)
        };
        assert!(
            estimate_revenue(&bad_batch, &HonestStrategy, ConsensusBackend::Bernoulli).is_err()
        );
        let bad_budget = EstimatorConfig {
            max_replicas: 1,
            ..config(0.3, 100, 1)
        };
        assert!(
            estimate_revenue(&bad_budget, &HonestStrategy, ConsensusBackend::Bernoulli).is_err()
        );
    }

    #[test]
    fn inconsistent_replica_floors_are_rejected_not_clamped() {
        // Regression: both configs used to be accepted by silently clamping
        // min_replicas via `.max(2).min(max_replicas)`.
        let too_low = EstimatorConfig {
            min_replicas: 1,
            ..config(0.3, 100, 1)
        };
        assert!(matches!(
            estimate_revenue(&too_low, &HonestStrategy, ConsensusBackend::Bernoulli),
            Err(ConformanceError::InvalidConfig {
                name: "min_replicas",
                ..
            })
        ));
        let above_budget = EstimatorConfig {
            min_replicas: 9,
            max_replicas: 8,
            ..config(0.3, 100, 1)
        };
        assert!(matches!(
            estimate_revenue(&above_budget, &HonestStrategy, ConsensusBackend::Bernoulli),
            Err(ConformanceError::InvalidConfig {
                name: "min_replicas",
                ..
            })
        ));
    }

    #[test]
    fn every_backend_estimates_the_honest_share() {
        // Proof-backed backends plug into the same estimator and land on the
        // proportional share for honest behaviour (the σ = 1 law is p for
        // every backend, including the budget-capped space-time miner).
        for backend in [
            ConsensusBackend::PoStake,
            ConsensusBackend::Vdf,
            ConsensusBackend::Post { vdfs: 1 },
        ] {
            let estimate =
                estimate_revenue(&config(0.3, 8_000, 5), &HonestStrategy, backend).unwrap();
            assert_eq!(estimate.backend, backend);
            assert!(
                (estimate.mean - 0.3).abs() <= estimate.half_width + 2e-2,
                "{backend}: mean {} (hw {})",
                estimate.mean,
                estimate.half_width
            );
        }
    }

    #[test]
    fn out_of_range_shares_are_config_errors_not_asserts() {
        // Regression direction: an invalid p used to reach Simulator::new's
        // assert; the estimator now rejects it with its own typed error.
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(matches!(
                estimate_revenue(
                    &config(bad, 100, 1),
                    &HonestStrategy,
                    ConsensusBackend::Bernoulli
                ),
                Err(ConformanceError::InvalidConfig {
                    name: "simulation.p",
                    ..
                })
            ));
        }
        // The same holds for every other field Simulator::new asserts on: an
        // out-of-range or NaN gamma and a zero structural parameter.
        let rejects = |simulation: SimulationConfig, field: &str| {
            let bad = EstimatorConfig {
                simulation,
                ..config(0.3, 100, 1)
            };
            let outcome = estimate_revenue(&bad, &HonestStrategy, ConsensusBackend::Bernoulli);
            assert!(
                matches!(outcome, Err(ConformanceError::InvalidConfig { name, .. }) if name == field),
                "{field}: {outcome:?}"
            );
        };
        let valid = config(0.3, 100, 1).simulation;
        for gamma in [-0.1, 1.5, f64::NAN] {
            rejects(SimulationConfig { gamma, ..valid }, "simulation.gamma");
        }
        rejects(SimulationConfig { depth: 0, ..valid }, "simulation.depth");
        rejects(
            SimulationConfig {
                forks_per_block: 0,
                ..valid
            },
            "simulation.forks_per_block",
        );
        rejects(
            SimulationConfig {
                max_fork_length: 0,
                ..valid
            },
            "simulation.max_fork_length",
        );
    }

    #[test]
    fn backend_construction_errors_propagate() {
        assert!(matches!(
            estimate_revenue(
                &config(0.3, 100, 1),
                &HonestStrategy,
                ConsensusBackend::Post { vdfs: 0 },
            ),
            Err(ConformanceError::Analysis(_))
        ));
    }

    #[test]
    fn non_finite_interval_parameters_are_rejected() {
        let bad_tol = EstimatorConfig {
            tolerance: f64::INFINITY,
            ..config(0.3, 100, 1)
        };
        assert!(matches!(
            estimate_revenue(&bad_tol, &HonestStrategy, ConsensusBackend::Bernoulli),
            Err(ConformanceError::InvalidConfig {
                name: "tolerance",
                ..
            })
        ));
    }
}
