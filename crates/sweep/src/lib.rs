//! Parallel `(p, γ)` sweep engine for the selfish-mining analysis.
//!
//! The paper's Figure 2 evaluates a dense grid — 31 values of `p` × 5 values
//! of `γ` × 5 attack configurations — and the historical driver re-ran the
//! full breadth-first model construction for every single grid point. This
//! crate is the orchestration layer that exploits the parametric structure
//! instead:
//!
//! * per `(d, f)` configuration (and, in the conformance pass, per attack
//!   scenario), **one** [`ParametricModel`] is built and shared (read-only)
//!   across the whole grid;
//! * the grid is cut into **curve jobs** — one `(d, f) × γ` attack curve
//!   (`(scenario, d, f) × γ` in the conformance pass) or one `γ` baseline
//!   curve — and fanned out over a [`std::thread::scope`] worker pool; each
//!   worker owns **one instantiated arena** per job and refills it in place
//!   per `p` ([`ParametricModel::instantiate_into`]);
//! * within a curve, consecutive `p` points **warm-start** each other: the
//!   Dinkelbach iteration starts from the neighbouring point's certified
//!   `β_low`, and each inner relative-value-iteration solve is seeded with
//!   the bias vector of its predecessor
//!   ([`selfish_mining::AnalysisProcedure::solve_dinkelbach_warm`]).
//!
//! Curve jobs are deterministic and independent, so the result is identical
//! for any worker count — only wall-clock time changes. On a single core the
//! engine still wins by a large factor over the rebuild-per-point path
//! through arena reuse and warm starts alone; see `EXPERIMENTS.md` for
//! measured numbers.
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
//! ([`sm_scheduler::run_budgeted_jobs`]). The historical pool spawned
//! `min(workers, jobs)` threads and idled the rest on short queues. Every
//! solver is bit-identical for any thread count, so the schedule shape is
//! invisible in the results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use selfish_mining::baselines::{honest_relative_revenue, SingleTreeAttack};
use selfish_mining::experiments::{attack_curve, Figure2Point};
use selfish_mining::{
    validate_epsilon, validate_share, AnalysisConfig, AttackScenario, ParametricModel,
    SelfishMiningError, SolverParallelism, StrategyExport,
};
use sm_conformance::{certify_point, ConformanceError, ConformancePoint, ConformanceReport};
use sm_scheduler::{resolve_budget, run_budgeted_jobs};

pub use sm_conformance::ConformanceSettings;

/// Configuration of a grid sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// The `(d, f)` attack configurations to evaluate at every grid point.
    pub attack_grid: Vec<(usize, usize)>,
    /// The attack scenarios the *conformance* pass certifies per `(d, f)`
    /// configuration ([`SweepConfig::run_conformance`] fans
    /// `(scenario, d, f) × γ` curve jobs over the pool). The revenue sweep
    /// [`SweepConfig::run`] regenerates the paper's Figure 2 and always
    /// evaluates the optimal scenario, ignoring this field.
    pub scenarios: Vec<AttackScenario>,
    /// Maximal private fork length `l`.
    pub max_fork_length: usize,
    /// Precision `ε` of the per-point analysis.
    pub epsilon: f64,
    /// Global thread budget shared by outer curve jobs and intra-solve
    /// parallelism (see the crate docs on nested budgeting); `0` uses
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Whether consecutive `p` points of a curve warm-start each other
    /// (neighbouring `β_low` + bias carry-over). Disabling this keeps the
    /// arena reuse but solves every point cold; it exists as an ablation
    /// knob, not something a user should normally turn off.
    pub warm_start: bool,
    /// Single-tree baseline tree depth.
    pub single_tree_depth: usize,
    /// Single-tree baseline tree width.
    pub single_tree_width: usize,
}

impl Default for SweepConfig {
    /// The affordable `(d, f)` prefix of the paper's grid, `l = 4`,
    /// `ε = 10⁻³`, warm starts on, automatic worker count.
    fn default() -> Self {
        SweepConfig {
            attack_grid: vec![(1, 1), (2, 1), (2, 2)],
            scenarios: vec![AttackScenario::Optimal],
            max_fork_length: 4,
            epsilon: 1e-3,
            workers: 0,
            warm_start: true,
            single_tree_depth: 4,
            single_tree_width: 5,
        }
    }
}

/// One curve's worth of results (revenue per `p`), or the first error the
/// job hit.
type CurveResult = Result<Vec<f64>, SelfishMiningError>;

/// One unit of work for the pool: a whole curve, solved sequentially so its
/// points can warm-start each other.
enum CurveJob {
    /// Attack curve: configuration index into the grid × γ index.
    Attack { config: usize, gamma_index: usize },
    /// Baseline curve (single-tree attack) for one γ.
    Baseline { gamma_index: usize },
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
    /// [`selfish_mining::DinkelbachWarmStart`]) — so any grid is *correct*,
    /// smooth ascending grids are merely fastest.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or non-positive `ε` and any `p`/`γ` grid value
    /// outside `[0, 1]` (or `NaN`) up front with
    /// [`SelfishMiningError::InvalidParameter`], before any model is built;
    /// then propagates the first model-construction or solver error any job
    /// hits.
    pub fn run(&self, gammas: &[f64], ps: &[f64]) -> Result<Vec<Figure2Point>, SelfishMiningError> {
        self.validate_grid(gammas, ps)?;
        // Build each (d, f) family once, up front; jobs share them read-only.
        let families = self.build_families()?;

        let mut jobs: Vec<CurveJob> = Vec::with_capacity((families.len() + 1) * gammas.len());
        for gamma_index in 0..gammas.len() {
            for config in 0..families.len() {
                jobs.push(CurveJob::Attack {
                    config,
                    gamma_index,
                });
            }
            jobs.push(CurveJob::Baseline { gamma_index });
        }

        let budget = resolve_budget(self.workers);
        let results: Vec<CurveResult> =
            run_budgeted_jobs(budget, jobs.len(), |index, allowance| {
                self.run_job(
                    &jobs[index],
                    &families,
                    gammas,
                    ps,
                    SolverParallelism::threads(allowance),
                )
            });

        // Assemble per-(γ, p) points from the per-curve result rows.
        let mut curves: Vec<Vec<f64>> = Vec::with_capacity(results.len());
        for outcome in results {
            curves.push(outcome?);
        }
        let mut points = Vec::with_capacity(gammas.len() * ps.len());
        let rows_per_gamma = families.len() + 1;
        for (gamma_index, &gamma) in gammas.iter().enumerate() {
            let base = gamma_index * rows_per_gamma;
            let baseline = &curves[base + families.len()];
            for (i, &p) in ps.iter().enumerate() {
                points.push(Figure2Point {
                    p,
                    gamma,
                    attack_revenue: (0..families.len())
                        .map(|config| curves[base + config][i])
                        .collect(),
                    honest_revenue: honest_relative_revenue(p)?,
                    single_tree_revenue: baseline[i],
                });
            }
        }
        Ok(points)
    }

    /// Runs the optional statistical-conformance pass over the grid: every
    /// `(scenario, d, f) × γ` attack curve is solved with full certificates
    /// ([`selfish_mining::experiments::attack_curve`], same arenas
    /// and warm starts as
    /// [`SweepConfig::run`]) on the scenario's own sub-arena, each point's
    /// ε-optimal strategy is exported into the simulator, and a batched
    /// Monte-Carlo estimate per configured consensus backend
    /// (`settings.backends`) is compared against the certified
    /// `[β_low, β_up]` revenue bracket.
    ///
    /// Curve jobs fan out over the same worker pool as the revenue sweep and
    /// the Monte-Carlo replica seeds are pure functions of
    /// `settings.master_seed`, the point coordinates and the scenario and
    /// backend salts, so the report is deterministic for any worker count —
    /// of this pool *and* of the estimator's. Points are ordered by `γ` (input order),
    /// then `(d, f)` (grid order), then scenario
    /// ([`SweepConfig::scenarios`] order), then `p` (input order).
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or non-positive `ε` and any `p`/`γ` grid value
    /// outside `[0, 1]` (or `NaN`) up front — wrapped in
    /// [`ConformanceError::Analysis`] — before any model is built; then
    /// propagates the first model-construction, solver or estimator error
    /// any job hits, and rejects an empty scenario list.
    pub fn run_conformance(
        &self,
        gammas: &[f64],
        ps: &[f64],
        settings: &ConformanceSettings,
    ) -> Result<ConformanceReport, ConformanceError> {
        self.validate_grid(gammas, ps)?;
        if self.scenarios.is_empty() {
            return Err(ConformanceError::InvalidConfig {
                name: "scenarios",
                constraint: "must name at least one attack scenario",
            });
        }
        let families = self.build_scenario_families()?;

        // One job per (γ, config, scenario) attack curve, in output order.
        let jobs: Vec<(usize, usize)> = (0..gammas.len())
            .flat_map(|gamma_index| (0..families.len()).map(move |family| (gamma_index, family)))
            .collect();
        let budget = resolve_budget(self.workers);
        let results = run_budgeted_jobs(budget, jobs.len(), |index, allowance| {
            let (gamma_index, family) = jobs[index];
            self.certify_curve(
                &families[family],
                gammas[gamma_index],
                ps,
                settings,
                SolverParallelism::threads(allowance),
            )
        });

        let mut points = Vec::with_capacity(jobs.len() * ps.len());
        for outcome in results {
            points.extend(outcome?);
        }
        Ok(ConformanceReport { points })
    }

    /// Validates the sweep precision and the whole `(γ, p)` grid before any
    /// arena is built: a single `NaN` grid value would otherwise ride
    /// through model instantiation into the Dinkelbach iteration, where it
    /// surfaces (at best) as a confusing non-convergence error after real
    /// work was spent. The same helpers back the query service's request
    /// validation and the grid orchestrator's up-front spec check, so batch,
    /// daemon and sharded entry points reject bad inputs identically.
    ///
    /// # Errors
    ///
    /// [`SelfishMiningError::InvalidParameter`] naming the offending field.
    pub fn validate_grid(&self, gammas: &[f64], ps: &[f64]) -> Result<(), SelfishMiningError> {
        validate_epsilon(self.epsilon)?;
        for &gamma in gammas {
            validate_share("gamma", gamma)?;
        }
        for &p in ps {
            validate_share("p", p)?;
        }
        Ok(())
    }

    /// Builds each `(d, f)` family of the grid once; jobs share them
    /// read-only.
    fn build_families(&self) -> Result<Vec<ParametricModel>, SelfishMiningError> {
        self.attack_grid
            .iter()
            .map(|&(depth, forks)| ParametricModel::build(depth, forks, self.max_fork_length))
            .collect()
    }

    /// Builds one parametric family per `(d, f) × scenario` of the
    /// conformance grid, in output order: `(d, f)` outer (grid order),
    /// scenario inner ([`SweepConfig::scenarios`] order). This enumeration
    /// *is* the canonical family order of [`SweepConfig::run_conformance`]'s
    /// report — the grid orchestrator (`sm-grid`) re-derives per-point
    /// coordinates from the same indices, which is what lets its merged
    /// report line up with the single-process pass byte for byte.
    ///
    /// # Errors
    ///
    /// Propagates the first model-construction error.
    pub fn build_scenario_families(&self) -> Result<Vec<ParametricModel>, SelfishMiningError> {
        self.attack_grid
            .iter()
            .flat_map(|&(depth, forks)| {
                self.scenarios.iter().map(move |&scenario| {
                    ParametricModel::build_scenario(scenario, depth, forks, self.max_fork_length)
                })
            })
            .collect()
    }

    /// Solves one `(scenario, d, f) × γ` curve with certificates and
    /// witnesses every point with the Monte-Carlo estimator.
    fn certify_curve(
        &self,
        family: &ParametricModel,
        gamma: f64,
        ps: &[f64],
        settings: &ConformanceSettings,
        parallelism: SolverParallelism,
    ) -> Result<Vec<ConformancePoint>, ConformanceError> {
        let solves = attack_curve(
            family,
            gamma,
            ps,
            self.warm_start,
            AnalysisConfig::with_epsilon(self.epsilon).with_parallelism(parallelism),
        )?;
        // The export reads only the family's shared skeleton — no per-(p, γ)
        // instantiation is needed.
        let export = StrategyExport::from_family(family);
        solves
            .iter()
            .map(|solve| certify_point(&export, solve, settings))
            .collect()
    }

    /// Runs one curve job to completion on the calling worker thread, with
    /// `parallelism` threads granted to the job's own solver sweeps.
    fn run_job(
        &self,
        job: &CurveJob,
        families: &[ParametricModel],
        gammas: &[f64],
        ps: &[f64],
        parallelism: SolverParallelism,
    ) -> CurveResult {
        match *job {
            CurveJob::Attack {
                config,
                gamma_index,
            } => attack_curve(
                &families[config],
                gammas[gamma_index],
                ps,
                self.warm_start,
                AnalysisConfig::with_epsilon(self.epsilon).with_parallelism(parallelism),
            )
            .map(|solves| solves.into_iter().map(|s| s.strategy_revenue).collect()),
            CurveJob::Baseline { gamma_index } => ps
                .iter()
                .map(|&p| {
                    SingleTreeAttack {
                        p,
                        gamma: gammas[gamma_index],
                        max_depth: self.single_tree_depth,
                        max_width: self.single_tree_width,
                    }
                    .analyse()
                    .map(|result| result.relative_revenue)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(workers: usize) -> SweepConfig {
        SweepConfig {
            attack_grid: vec![(1, 1), (2, 1)],
            epsilon: 5e-3,
            workers,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn engine_is_deterministic_across_worker_counts() {
        let gammas = [0.0, 0.5];
        let ps = [0.1, 0.2, 0.3];
        let one = small_config(1).run(&gammas, &ps).unwrap();
        let four = small_config(4).run(&gammas, &ps).unwrap();
        assert_eq!(one.len(), gammas.len() * ps.len());
        assert_eq!(one, four, "curve jobs are independent and deterministic");
    }

    #[test]
    fn warm_and_cold_sweeps_agree_within_epsilon() {
        let gammas = [0.25];
        let ps = [0.1, 0.2, 0.3];
        let warm = small_config(2).run(&gammas, &ps).unwrap();
        let cold = SweepConfig {
            warm_start: false,
            ..small_config(2)
        }
        .run(&gammas, &ps)
        .unwrap();
        for (w, c) in warm.iter().zip(&cold) {
            for (a, b) in w.attack_revenue.iter().zip(&c.attack_revenue) {
                assert!(
                    (a - b).abs() < 2.0 * 5e-3,
                    "warm {a} vs cold {b} at p = {}",
                    w.p
                );
            }
        }
    }

    #[test]
    fn masked_gamma_edges_run_through_the_engine() {
        // γ ∈ {0, 1} exercises the structurally-kept masked branches end to
        // end through instantiation, solving and baseline extraction.
        let points = small_config(2).run(&[0.0, 1.0], &[0.0, 0.3]).unwrap();
        assert_eq!(points.len(), 4);
        for point in &points {
            for &revenue in &point.attack_revenue {
                assert!((0.0..=1.0).contains(&revenue), "revenue {revenue}");
            }
            assert!(point.attack_revenue[1] >= point.honest_revenue - 5e-3);
        }
    }

    #[test]
    fn invalid_grid_surfaces_the_construction_error() {
        let config = SweepConfig {
            attack_grid: vec![(0, 1)],
            ..SweepConfig::default()
        };
        assert!(config.run(&[0.5], &[0.1]).is_err());
    }

    #[test]
    fn run_rejects_non_finite_epsilon_and_out_of_range_grids_up_front() {
        let expect_invalid = |result: Result<Vec<Figure2Point>, SelfishMiningError>,
                              expected: &'static str| {
            match result {
                Err(SelfishMiningError::InvalidParameter { name, .. }) => {
                    assert_eq!(name, expected)
                }
                other => panic!("expected InvalidParameter({expected}), got {other:?}"),
            }
        };
        for bad_epsilon in [f64::NAN, f64::INFINITY, 0.0, -1e-3] {
            let config = SweepConfig {
                epsilon: bad_epsilon,
                ..small_config(1)
            };
            expect_invalid(config.run(&[0.5], &[0.1]), "epsilon");
        }
        let config = small_config(1);
        for bad_share in [f64::NAN, f64::INFINITY, -0.1, 1.1] {
            expect_invalid(config.run(&[bad_share], &[0.1]), "gamma");
            expect_invalid(config.run(&[0.5], &[bad_share]), "p");
        }
    }

    #[test]
    fn conformance_pass_rejects_invalid_inputs_before_building_models() {
        // The (0, 1) grid would error during model construction; the NaN p
        // must win because validation runs first.
        let config = SweepConfig {
            attack_grid: vec![(0, 1)],
            ..SweepConfig::default()
        };
        match config.run_conformance(&[0.5], &[f64::NAN], &small_conformance_settings()) {
            Err(ConformanceError::Analysis(SelfishMiningError::InvalidParameter {
                name, ..
            })) => assert_eq!(name, "p"),
            other => panic!("expected InvalidParameter(p), got {other:?}"),
        }
        let config = SweepConfig {
            epsilon: f64::NAN,
            ..SweepConfig::default()
        };
        assert!(matches!(
            config.run_conformance(&[0.5], &[0.1], &small_conformance_settings()),
            Err(ConformanceError::Analysis(
                SelfishMiningError::InvalidParameter {
                    name: "epsilon",
                    ..
                }
            ))
        ));
    }

    fn small_conformance_settings() -> ConformanceSettings {
        ConformanceSettings {
            steps: 12_000,
            max_replicas: 12,
            tolerance: 8e-3,
            ..ConformanceSettings::default()
        }
    }

    #[test]
    fn conformance_pass_certifies_a_small_grid() {
        let config = SweepConfig {
            attack_grid: vec![(2, 1)],
            epsilon: 5e-3,
            workers: 2,
            ..SweepConfig::default()
        };
        let report = config
            .run_conformance(&[0.5], &[0.15, 0.3], &small_conformance_settings())
            .unwrap();
        assert_eq!(report.len(), 2);
        assert_eq!(report.points[0].p, 0.15);
        assert_eq!(report.points[1].p, 0.3);
        assert!(
            report.all_conform(),
            "violations: {:?}",
            report.violations()
        );
        assert!(report.sources_agree());
    }

    #[test]
    fn short_queue_conformance_sweep_is_bit_identical_across_budget_shapes() {
        // Regression for the nested-budget scheduler: a 2-curve-job
        // conformance sweep on an 8-thread budget (each job soaks up 4
        // intra-solve threads) must match the 2-thread (one thread per job)
        // and fully serial schedules bit for bit. The historical pool
        // spawned `min(workers, jobs)` threads, so the 8-budget run used to
        // leave 6 threads idle; now the surplus flows into the solves —
        // without being allowed to show up in the report.
        let run = |workers: usize| {
            SweepConfig {
                attack_grid: vec![(2, 1)],
                epsilon: 5e-3,
                workers,
                ..SweepConfig::default()
            }
            .run_conformance(&[0.0, 0.5], &[0.15, 0.3], &small_conformance_settings())
            .unwrap()
        };
        // 2 jobs (one per γ): compare the 8-thread budget schedule against
        // the 2-job and serial schedules.
        let eight = run(8);
        assert_eq!(eight.len(), 4);
        assert_eq!(eight, run(2), "8-thread budget must match 2-worker run");
        assert_eq!(eight, run(1), "8-thread budget must match serial run");
    }

    #[test]
    fn conformance_report_is_deterministic_across_worker_counts() {
        let report = |sweep_workers: usize, estimator_workers: usize| {
            SweepConfig {
                attack_grid: vec![(1, 1), (2, 1)],
                epsilon: 1e-2,
                workers: sweep_workers,
                ..SweepConfig::default()
            }
            .run_conformance(
                &[0.0, 1.0],
                &[0.1, 0.3],
                &ConformanceSettings {
                    steps: 5_000,
                    max_replicas: 8,
                    tolerance: 1e-2,
                    workers: estimator_workers,
                    ..ConformanceSettings::default()
                },
            )
            .unwrap()
        };
        let reference = report(1, 1);
        assert_eq!(reference.len(), 8);
        assert_eq!(
            reference,
            report(4, 2),
            "sweep/estimator pools must not affect the report"
        );
    }

    #[test]
    fn scenario_conformance_pass_orders_and_certifies_the_family() {
        let config = SweepConfig {
            attack_grid: vec![(2, 1)],
            scenarios: vec![
                AttackScenario::Optimal,
                AttackScenario::LeadStubborn,
                AttackScenario::HonestMining,
            ],
            epsilon: 5e-3,
            workers: 2,
            ..SweepConfig::default()
        };
        let report = config
            .run_conformance(&[0.5], &[0.3], &small_conformance_settings())
            .unwrap();
        assert_eq!(report.len(), 3);
        assert_eq!(report.points[0].scenario, "optimal");
        assert_eq!(report.points[1].scenario, "lead-stubborn");
        assert_eq!(report.points[2].scenario, "honest-mining");
        assert!(
            report.all_conform(),
            "violations: {:?}",
            report.violations()
        );
        // Restriction dominance on the certified brackets...
        assert!(
            report.points[1].certified_lower <= report.points[0].certified_upper + 1e-9,
            "lead-stubborn must not certify above the optimum"
        );
        // ...and the honest sanity anchor certifies the proportional share.
        assert!(
            (report.points[2].strategy_revenue - 0.3).abs() <= 5e-3,
            "honest-mining revenue {} should be p = 0.3",
            report.points[2].strategy_revenue
        );
        // Scenario jobs are deterministic across pool shapes too.
        let re_run = SweepConfig {
            workers: 1,
            ..config
        }
        .run_conformance(&[0.5], &[0.3], &small_conformance_settings())
        .unwrap();
        assert_eq!(report, re_run);
    }

    #[test]
    fn mixed_backend_conformance_batch_is_bit_identical_across_worker_counts() {
        // The backend × scenario matrix under every pool shape the CI and
        // the acceptance criteria exercise: sweep workers 1/2/4/8 (with the
        // estimator pool varied too) must produce byte-for-byte the same
        // report. Cheap backends keep the matrix affordable; the space-time
        // budget (vdfs = 1 < σ-capable depths) exercises the capped law.
        use selfish_mining::ConsensusBackend;
        let settings = ConformanceSettings {
            steps: 4_000,
            max_replicas: 8,
            tolerance: 1e-12, // never met: every run does the full budget
            backends: vec![
                ConsensusBackend::Bernoulli,
                ConsensusBackend::PoStake,
                ConsensusBackend::Vdf,
                ConsensusBackend::Post { vdfs: 1 },
            ],
            ..ConformanceSettings::default()
        };
        let run = |sweep_workers: usize, estimator_workers: usize| {
            SweepConfig {
                attack_grid: vec![(2, 1)],
                scenarios: vec![AttackScenario::Optimal, AttackScenario::HonestMining],
                epsilon: 1e-2,
                workers: sweep_workers,
                ..SweepConfig::default()
            }
            .run_conformance(
                &[0.5],
                &[0.1, 0.3],
                &ConformanceSettings {
                    workers: estimator_workers,
                    ..settings.clone()
                },
            )
            .unwrap()
        };
        let reference = run(1, 1);
        assert_eq!(reference.len(), 4);
        for point in &reference.points {
            assert_eq!(point.estimates.len(), 4);
            assert_eq!(point.estimates[1].backend, ConsensusBackend::PoStake);
        }
        for (sweep_workers, estimator_workers) in [(2, 2), (4, 1), (8, 4)] {
            assert_eq!(
                reference,
                run(sweep_workers, estimator_workers),
                "workers ({sweep_workers}, {estimator_workers}) changed the report"
            );
        }
    }

    #[test]
    fn empty_scenario_list_is_rejected() {
        let config = SweepConfig {
            attack_grid: vec![(1, 1)],
            scenarios: vec![],
            ..SweepConfig::default()
        };
        assert!(matches!(
            config.run_conformance(&[0.5], &[0.1], &small_conformance_settings()),
            Err(ConformanceError::InvalidConfig {
                name: "scenarios",
                ..
            })
        ));
    }

    #[test]
    fn conformance_pass_with_empty_p_grid_is_empty() {
        let config = SweepConfig {
            attack_grid: vec![(1, 1)],
            ..SweepConfig::default()
        };
        let report = config
            .run_conformance(&[0.5], &[], &small_conformance_settings())
            .unwrap();
        assert!(report.is_empty());
        assert!(report.all_conform());
    }
}
