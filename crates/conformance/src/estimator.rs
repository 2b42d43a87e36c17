//! The batched parallel Monte-Carlo revenue estimator.
//!
//! Replicas are independent seeded [`Simulator`] runs; their relative
//! revenues stream into a Welford mean/variance accumulator that feeds a CLT
//! confidence interval. A sequential stopping rule runs batches of replicas
//! until the interval half-width drops below the tolerance or the replica
//! budget is exhausted. The replica fan-out runs on the workspace's one job
//! loop ([`sm_scheduler::run_budgeted_jobs`], a [`std::thread::scope`] pool
//! draining an atomic index), and the result is **bit-identical for any worker count**: replica `i`'s seeds are
//! a pure function of the master seed and `i`, and the accumulator always
//! folds the per-replica results in replica order.
//!
//! Replicas draw block arrivals from any [`ConsensusBackend`] realisation:
//! the ideal Bernoulli lottery or one of the proof-backed lotteries from
//! `sm-proofs` (hashcash, stake, space, space-time, VDF beacon).

use crate::ConformanceError;
use selfish_mining::SelfishMiningError;
use sm_chain::{AdversaryStrategy, ConsensusBackend, SimulationConfig, Simulator};
use sm_scheduler::{resolve_budget, run_budgeted_jobs};

/// Configuration of the Monte-Carlo estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// Per-replica simulation parameters. `simulation.seed` is the **master
    /// seed**: replica `i` derives its simulation and arrival-source seeds
    /// from it by deterministic mixing, so one config describes the entire
    /// replica family.
    pub simulation: SimulationConfig,
    /// Target half-width of the confidence interval: the sequential stopping
    /// rule ends the run once `z_score · σ̂ / √n ≤ tolerance`.
    pub tolerance: f64,
    /// Normal quantile scaling the interval (1.96 ≈ 95 %, 3.0 ≈ 99.7 %).
    pub z_score: f64,
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
    /// Worker threads; `0` uses [`std::thread::available_parallelism`]. The
    /// estimate is bit-identical for every choice.
    pub workers: usize,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            simulation: SimulationConfig::default(),
            tolerance: 4e-3,
            z_score: 3.0,
            min_replicas: 4,
            batch: 4,
            max_replicas: 64,
            workers: 0,
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
        if !self.z_score.is_finite() || self.z_score <= 0.0 {
            return Err(ConformanceError::InvalidConfig {
                name: "z_score",
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
        // Reject an invalid resource share up front with a typed error; the
        // historical path let `Simulator::new` catch it with an assert.
        if sm_chain::validate_share("p", self.simulation.p).is_err() {
            return Err(ConformanceError::InvalidConfig {
                name: "simulation.p",
                constraint: "must lie in [0, 1]",
            });
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

    /// CLT half-width `z · σ̂ / √n` of the accumulated sample — the one
    /// expression both the stopping rule and the final estimate use.
    fn half_width(&self, z_score: f64) -> f64 {
        z_score * (self.variance() / self.count as f64).sqrt()
    }
}

/// The two seeds of replica `index`: one for the simulation RNG, one for the
/// arrival source. Pure in `(master, index)`, which is what makes the
/// estimator deterministic for any worker count.
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

/// Runs replicas `first..first + count` and returns their contributions in
/// replica order, fanning them over the shared scoped worker pool.
fn run_round<S>(
    config: &EstimatorConfig,
    strategy: &S,
    backend: ConsensusBackend,
    first: usize,
    count: usize,
) -> Vec<Result<(f64, u64), ConformanceError>>
where
    S: AdversaryStrategy + Clone + Send + Sync,
{
    run_budgeted_jobs(resolve_budget(config.workers), count, |offset, _| {
        run_replica(config, strategy, backend, first + offset)
    })
}

/// Estimates the expected relative revenue of `strategy` under the given
/// backend's arrival realisation.
///
/// Replicas run in batches of [`EstimatorConfig::batch`]; after each batch
/// the CLT interval is recomputed and the run stops once its half-width
/// reaches [`EstimatorConfig::tolerance`] (sequential stopping rule) or
/// [`EstimatorConfig::max_replicas`] is exhausted. The returned estimate is
/// **bit-identical for any** [`EstimatorConfig::workers`] **count** given the
/// same master seed.
///
/// # Errors
///
/// Returns [`ConformanceError::InvalidConfig`] for non-finite or
/// non-positive tolerances and z-scores, an empty batch, a replica budget
/// below 2, a replica floor below 2 or above the budget, or an out-of-range
/// resource share. (The historical code silently clamped an inconsistent
/// `min_replicas` into range instead of rejecting the config.) Backend
/// construction errors (e.g. a zero-VDF space-time budget) propagate as
/// [`ConformanceError::Analysis`].
pub fn estimate_revenue<S>(
    config: &EstimatorConfig,
    strategy: &S,
    backend: ConsensusBackend,
) -> Result<Estimate, ConformanceError>
where
    S: AdversaryStrategy + Clone + Send + Sync,
{
    config.validate()?;
    let mut welford = Welford::default();
    let mut unknown_views = 0u64;
    let mut converged = false;
    let mut next_index = 0usize;
    while next_index < config.max_replicas {
        let round = config.batch.min(config.max_replicas - next_index);
        for result in run_round(config, strategy, backend, next_index, round) {
            let (revenue, misses) = result?;
            welford.push(revenue);
            unknown_views += misses;
        }
        next_index += round;
        if welford.count >= config.min_replicas
            && welford.half_width(config.z_score) <= config.tolerance
        {
            converged = true;
            break;
        }
    }
    Ok(Estimate {
        backend,
        mean: welford.mean,
        variance: welford.variance(),
        half_width: welford.half_width(config.z_score),
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
    fn estimator_is_bit_identical_across_worker_counts() {
        let base = EstimatorConfig {
            // A tolerance no run meets forces the full budget, so every
            // worker count runs the same replicas.
            tolerance: 1e-12,
            max_replicas: 10,
            batch: 3,
            ..config(0.25, 5_000, 77)
        };
        let reference = estimate_revenue(
            &EstimatorConfig {
                workers: 1,
                ..base.clone()
            },
            &HonestStrategy,
            ConsensusBackend::PowLottery,
        )
        .unwrap();
        for workers in [2, 5, 8] {
            let estimate = estimate_revenue(
                &EstimatorConfig {
                    workers,
                    ..base.clone()
                },
                &HonestStrategy,
                ConsensusBackend::PowLottery,
            )
            .unwrap();
            assert_eq!(reference, estimate, "workers = {workers}");
        }
        assert!(!reference.converged);
        assert_eq!(reference.replicas, 10);
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
        // Regression: an infinite z_score used to pass validation (only NaN
        // was caught) and produced an infinite, never-converging interval.
        for z_score in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let bad = EstimatorConfig {
                z_score,
                ..config(0.3, 100, 1)
            };
            assert!(matches!(
                estimate_revenue(&bad, &HonestStrategy, ConsensusBackend::Bernoulli),
                Err(ConformanceError::InvalidConfig {
                    name: "z_score",
                    ..
                })
            ));
        }
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
