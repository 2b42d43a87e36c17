//! The Figure 2 revenue sweep.
//!
//! The paper's Figure 2 evaluates a dense grid — 31 values of `p` × 5 values
//! of `γ` × 5 attack configurations. This sweep and the conformance grid
//! ([`crate::run_grid`]) both exploit the parametric structure of that grid
//! instead of rebuilding a model per point:
//!
//! * per `(d, f)` configuration (and, for the conformance grid, per attack
//!   scenario), **one** [`ParametricModel`] is built and shared (read-only)
//!   across the whole grid;
//! * the grid is cut into **curve jobs** — one `(d, f) × γ` attack curve
//!   (`(scenario, d, f) × γ` in the conformance grid) or one `γ` baseline
//!   curve — and fanned out over a worker pool; each job owns **one
//!   instantiated arena** and refills it in place per `p`
//!   ([`ParametricModel::instantiate_into`]);
//! * within a curve, consecutive `p` points **warm-start** each other: the
//!   Dinkelbach iteration starts from the neighbouring point's certified
//!   `β_low`, and each inner relative-value-iteration solve is seeded with
//!   the bias vector of its predecessor
//!   ([`selfish_mining::experiments::CurveTracker`]).
//!
//! Curve jobs are deterministic and independent, so the result is identical
//! for any worker count — only wall-clock time changes.
//!
//! # Nested budgeting
//!
//! [`SweepConfig::workers`] is a **global thread budget**, shared between
//! the outer curve jobs and the *intra-solve* parallelism of the solvers
//! ([`selfish_mining::SolverParallelism`]): while the job queue is deep,
//! the budget goes to outer jobs (they parallelise with zero
//! synchronisation cost); as the queue drains below the budget — or when
//! there were fewer jobs than threads to begin with — the left-over
//! threads are granted to the running jobs, which forward them to the
//! row-block parallel Bellman and chain sweeps inside every solve
//! ([`selfish_mining::run_budgeted_jobs`]). Every solver is bit-identical for
//! any thread count, so the schedule shape is invisible in the results.

use selfish_mining::baselines::{honest_relative_revenue, SingleTreeAttack};
use selfish_mining::experiments::{attack_curve, Figure2Point};
use selfish_mining::{
    run_budgeted_jobs, validate_epsilon, validate_share, AnalysisConfig, ParametricModel,
    SelfishMiningError, SolverParallelism,
};

/// Configuration of the Figure 2 revenue sweep, which evaluates the optimal
/// attack scenario at every grid point next to the honest baseline and the
/// paper's single-tree baseline
/// ([`SingleTreeAttack::paper_configuration`]: depth 4, width 5).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// The `(d, f)` attack configurations to evaluate at every grid point.
    pub attack_grid: Vec<(usize, usize)>,
    /// Maximal private fork length `l`.
    pub max_fork_length: usize,
    /// Precision `ε` of the per-point analysis.
    pub epsilon: f64,
    /// Global thread budget shared by outer curve jobs and intra-solve
    /// parallelism (see the module docs on nested budgeting); `0` uses
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
}

impl Default for SweepConfig {
    /// The affordable `(d, f)` prefix of the paper's grid, `l = 4`,
    /// `ε = 10⁻³`, automatic worker count.
    fn default() -> Self {
        SweepConfig {
            attack_grid: vec![(1, 1), (2, 1), (2, 2)],
            max_fork_length: 4,
            epsilon: 1e-3,
            workers: 0,
        }
    }
}

/// One unit of work for the pool: a whole curve, solved sequentially so its
/// points can warm-start each other.
enum CurveJob<'a> {
    /// Attack curve of one `(d, f)` family at one `γ`.
    Attack {
        family: &'a ParametricModel,
        gamma: f64,
    },
    /// Baseline curve (single-tree attack) for one `γ`.
    Baseline { gamma: f64 },
}

impl SweepConfig {
    /// Runs the sweep over `gammas × ps` and returns one [`Figure2Point`] per
    /// grid point, ordered by `γ` (outer, in input order) then `p` (inner, in
    /// input order) — the layout the Figure 2 renderers expect.
    ///
    /// The warm `β` seed is extrapolated through each curve's previous
    /// points; a misfitting seed (e.g. on a non-monotone `p` grid) merely
    /// costs extra inner iterations — over- and undershoots alike preserve
    /// the `ε` guarantee (see
    /// [`selfish_mining::experiments::attack_curve`]) — so any grid is
    /// *correct*, smooth ascending grids are merely fastest.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or non-positive `ε` and any `p`/`γ` grid value
    /// outside `[0, 1]` (or `NaN`) up front with
    /// [`SelfishMiningError::InvalidParameter`], before any model is built;
    /// then propagates the first model-construction or solver error any job
    /// hits.
    pub fn run(&self, gammas: &[f64], ps: &[f64]) -> Result<Vec<Figure2Point>, SelfishMiningError> {
        validate_grid(self.epsilon, gammas, ps)?;
        // Build each (d, f) family once, up front; jobs share them read-only.
        let families = self
            .attack_grid
            .iter()
            .map(|&(depth, forks)| ParametricModel::build(depth, forks, self.max_fork_length))
            .collect::<Result<Vec<_>, _>>()?;

        // Per γ: one attack curve per family, then the baseline curve.
        let jobs: Vec<CurveJob> = gammas
            .iter()
            .flat_map(|&gamma| {
                families
                    .iter()
                    .map(move |family| CurveJob::Attack { family, gamma })
                    .chain(std::iter::once(CurveJob::Baseline { gamma }))
            })
            .collect();
        let budget = SolverParallelism::threads(self.workers);
        let curves = run_budgeted_jobs(budget, jobs.len(), |index, allowance| {
            jobs.get(index).map(|job| self.run_job(job, ps, allowance))
        })
        .into_iter()
        .flatten()
        .collect::<Result<Vec<Vec<f64>>, SelfishMiningError>>()?;

        // Assemble per-(γ, p) points from the per-curve result rows.
        let mut points = Vec::with_capacity(gammas.len() * ps.len());
        for (&gamma, row) in gammas.iter().zip(curves.chunks(families.len() + 1)) {
            let Some((baseline, attacks)) = row.split_last() else {
                continue;
            };
            for (i, (&p, &single_tree_revenue)) in ps.iter().zip(baseline).enumerate() {
                points.push(Figure2Point {
                    p,
                    gamma,
                    attack_revenue: attacks
                        .iter()
                        .filter_map(|curve| curve.get(i).copied())
                        .collect(),
                    honest_revenue: honest_relative_revenue(p)?,
                    single_tree_revenue,
                });
            }
        }
        Ok(points)
    }

    /// Runs one curve job to completion on the calling worker thread, with
    /// `parallelism` threads granted to the job's own solver sweeps.
    fn run_job(
        &self,
        job: &CurveJob,
        ps: &[f64],
        parallelism: SolverParallelism,
    ) -> Result<Vec<f64>, SelfishMiningError> {
        match *job {
            CurveJob::Attack { family, gamma } => attack_curve(
                family,
                gamma,
                ps,
                AnalysisConfig::with_epsilon(self.epsilon).with_parallelism(parallelism),
            )
            .map(|solves| solves.into_iter().map(|s| s.strategy_revenue).collect()),
            CurveJob::Baseline { gamma } => ps
                .iter()
                .map(|&p| {
                    SingleTreeAttack::paper_configuration(p, gamma)
                        .analyse()
                        .map(|result| result.relative_revenue)
                })
                .collect(),
        }
    }
}

/// Validates the sweep precision and the whole `(γ, p)` grid before any
/// arena is built: a single `NaN` grid value would otherwise ride through
/// model instantiation into the Dinkelbach iteration, where it surfaces (at
/// best) as a confusing non-convergence error after real work was spent.
/// The same helpers back the query service's request validation, so the
/// Figure 2 sweep, the conformance grid and the daemon reject bad inputs
/// identically.
///
/// # Errors
///
/// [`SelfishMiningError::InvalidParameter`] naming the offending field.
pub(crate) fn validate_grid(
    epsilon: f64,
    gammas: &[f64],
    ps: &[f64],
) -> Result<(), SelfishMiningError> {
    validate_epsilon(epsilon)?;
    for &gamma in gammas {
        validate_share("gamma", gamma)?;
    }
    for &p in ps {
        validate_share("p", p)?;
    }
    Ok(())
}
