//! Experiment drivers regenerating the data behind the paper's evaluation
//! (Section 4): the runtime table (Table 1) and the expected-relative-revenue
//! curves (Figure 2).
//!
//! The functions here compute *data rows*; the `sm-bench` crate turns them
//! into printed tables/series and Criterion benchmarks, and `EXPERIMENTS.md`
//! records the measured outputs next to the paper's reported values.

use crate::analysis::{dinkelbach, DinkelbachWarmStart};
use crate::baselines::SingleTreeAttack;
use crate::{AnalysisConfig, ParametricModel, SelfishMiningError, SelfishMiningModel, SolveStep};
use sm_mdp::PositionalStrategy;

/// The `(d, f)` grid evaluated in the paper (with `l = 4` throughout).
pub const PAPER_ATTACK_GRID: [(usize, usize); 5] = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)];

/// The switching probabilities evaluated in the paper's Figure 2.
pub const PAPER_GAMMA_GRID: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// One point of a Figure 2 curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure2Point {
    /// Adversarial resource share `p`.
    pub p: f64,
    /// Switching probability `γ`.
    pub gamma: f64,
    /// Expected relative revenue of our attack for each `(d, f)` of the
    /// sweep's attack grid (`sm_grid::SweepConfig::attack_grid`), in the
    /// same order.
    pub attack_revenue: Vec<f64>,
    /// Expected relative revenue of the honest baseline (= `p`).
    pub honest_revenue: f64,
    /// Expected relative revenue of the single-tree baseline.
    pub single_tree_revenue: f64,
}

/// One certified point of an attack curve: the ε-certificate on `ERRev*`
/// together with the ε-optimal strategy achieving it — everything the
/// statistical-conformance subsystem needs to independently witness the
/// solve with a Monte-Carlo replay.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifiedSolve {
    /// The attack scenario the point was solved under (the family's
    /// scenario; [`crate::AttackScenario::Optimal`] for the paper's model).
    pub scenario: crate::AttackScenario,
    /// Adversarial resource share of the point.
    pub p: f64,
    /// Switching probability of the point.
    pub gamma: f64,
    /// Certified lower end of the revenue bracket (`ERRev* − ε ≤ β_low ≤
    /// ERRev*`).
    pub beta_low: f64,
    /// Certified upper end of the revenue bracket (`ERRev* ≤ β_up`).
    pub beta_up: f64,
    /// Exact expected relative revenue of `strategy`, which also lies inside
    /// `[β_low, β_up]`.
    pub strategy_revenue: f64,
    /// The ε-optimal positional strategy of the point.
    pub strategy: PositionalStrategy,
    /// Precision `ε` the point was certified at (`β_up − β_low ≤ ε` up to
    /// the clamping of both ends into `[0, 1]`).
    pub epsilon: f64,
    /// Final bias vector of the certifying solve — the witness an
    /// independent checker (the `sm-audit` crate) replays single
    /// Bellman-residual passes against to re-validate `[β_low, β_up]`
    /// without re-running the solver.
    pub bias: Vec<f64>,
    /// One entry per inner mean-payoff solve of the Dinkelbach iteration
    /// that certified the point, in order.
    pub steps: Vec<SolveStep>,
}

/// Solves one attack curve — the certified `ERRev` of a single `(d, f, l)`
/// family at fixed `γ` over the given `p` values — on a shared parametric
/// arena, returning one [`CertifiedSolve`] per point (callers that want
/// only the revenues take [`CertifiedSolve::strategy_revenue`]).
///
/// The family is instantiated once and refilled in place per point
/// ([`ParametricModel::instantiate_into`]), and each point's Dinkelbach
/// iteration is seeded with a `β` *extrapolated* from the two previous
/// points of the curve (falling back to the neighbour's value for the
/// second point) and with the neighbour's final bias vector for its first
/// relative-value-iteration solve. A good seed collapses the analysis
/// to a single inner solve plus one revenue evaluation per grid point; a bad
/// seed merely costs extra iterations — over- and undershoots alike preserve
/// the `ε` guarantee.
///
/// `config` sets `ε` and the intra-solve thread allowance; certified β
/// bounds, strategies, revenues and bias witnesses are bit-identical for
/// any thread count. This is the sequential building block the `sm-grid`
/// Figure 2 sweep parallelizes across `(d, f) × γ` jobs, and a thin loop
/// over a warm [`CurveTracker::advance`].
///
/// # Errors
///
/// Propagates instantiation and solver errors.
pub fn attack_curve(
    family: &ParametricModel,
    gamma: f64,
    ps: &[f64],
    config: AnalysisConfig,
) -> Result<Vec<CertifiedSolve>, SelfishMiningError> {
    let mut tracker = CurveTracker::new(family, gamma, true, config);
    ps.iter().map(|&p| tracker.advance(p)).collect()
}

/// Incremental warm-start state of one attack curve: the reusable arena, the
/// Dinkelbach carry (`β` seed + bias vectors) and the `(p, β_low)` history
/// driving the quadratic `β` extrapolation.
///
/// [`attack_curve`] is a thin loop over [`CurveTracker::advance`]; the
/// query service holds trackers *open* across
/// requests instead, so a cached curve keeps warm-starting new points for as
/// long as it stays resident. The certificate produced for a point is a pure
/// function of the family, `γ`, the analysis config and the sequence of
/// `advance`d points before it — never of thread counts
/// ([`AnalysisConfig::parallelism`]) — which is what lets a caching layer
/// replay the same canonical sequence and answer bit-identically in any
/// cache state.
///
/// Every point is certified by Dinkelbach's ratio iteration over the
/// mean-payoff family `r_β` (see the crate docs); a tracker advanced once
/// is the one-point analysis.
///
/// ```
/// use selfish_mining::experiments::CurveTracker;
/// use selfish_mining::{AnalysisConfig, ParametricModel};
///
/// # fn main() -> Result<(), selfish_mining::SelfishMiningError> {
/// let family = ParametricModel::build(2, 1, 4)?;
/// let config = AnalysisConfig::with_epsilon(1e-2);
///
/// // Walk a curve in ascending p; each solve warm-starts from the last.
/// let mut tracker = CurveTracker::new(&family, 0.5, true, config.clone());
/// let mut brackets = Vec::new();
/// for p in [0.1, 0.2, 0.3] {
///     let solve = tracker.advance(p)?;
///     assert!(solve.beta_low <= solve.strategy_revenue);
///     assert!(solve.strategy_revenue <= solve.beta_up);
///     brackets.push((solve.beta_low, solve.beta_up));
/// }
///
/// // Purity: a fresh tracker replaying the same prefix reproduces the
/// // certificate bit for bit — the contract crash/resume orchestration
/// // (the `sm-grid` crate) is built on.
/// let mut replay = CurveTracker::new(&family, 0.5, true, config);
/// replay.advance(0.1)?;
/// replay.advance(0.2)?;
/// let again = replay.advance(0.3)?;
/// assert_eq!(again.beta_low.to_bits(), brackets[2].0.to_bits());
/// assert_eq!(again.beta_up.to_bits(), brackets[2].1.to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CurveTracker<'a> {
    family: &'a ParametricModel,
    gamma: f64,
    warm_start: bool,
    config: AnalysisConfig,
    model: Option<SelfishMiningModel>,
    warm: Option<DinkelbachWarmStart>,
    // The most recent (p, certified β_low) points, newest last, for the β
    // extrapolation.
    history: Vec<(f64, f64)>,
}

impl<'a> CurveTracker<'a> {
    /// Opens a tracker over `family` at switching probability `gamma`,
    /// certifying every point at `config.epsilon`. `warm_start = false`
    /// solves every point cold while still reusing the arena (the
    /// reference the warm chain is tested against).
    pub fn new(
        family: &'a ParametricModel,
        gamma: f64,
        warm_start: bool,
        config: AnalysisConfig,
    ) -> Self {
        CurveTracker {
            family,
            gamma,
            warm_start,
            config,
            model: None,
            warm: None,
            history: Vec::new(),
        }
    }

    /// Solves the point `p` warm from the tracker's state and advances the
    /// state (carry, extrapolation history) past it — the sweep engine's
    /// per-curve schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SelfishMiningError::InvalidParameter`] for a non-positive
    /// `ε` and [`SelfishMiningError::ConvergenceFailure`] if the iteration
    /// cap is exhausted, and propagates instantiation and solver errors;
    /// the tracker state is unchanged on error.
    pub fn advance(&mut self, p: f64) -> Result<CertifiedSolve, SelfishMiningError> {
        let (solve, carry) = self.solve(p)?;
        self.warm = if self.warm_start { Some(carry) } else { None };
        if self.history.len() == 3 {
            self.history.remove(0);
        }
        self.history.push((p, solve.beta_low));
        Ok(solve)
    }

    /// Solves the point `p` warm from the tracker's state **without**
    /// advancing it: the carry and extrapolation history are left exactly as
    /// before, so later `advance`/`probe` calls are unaffected by the probe.
    /// This is how the query service answers off-lattice points — the result
    /// is a pure function of the canonical lattice prefix and `p`, never of
    /// which other queries happened to be probed in between.
    ///
    /// # Errors
    ///
    /// Propagates instantiation and solver errors.
    pub fn probe(&mut self, p: f64) -> Result<CertifiedSolve, SelfishMiningError> {
        self.solve(p).map(|(solve, _)| solve)
    }

    /// Snapshots the detachable warm-start state — the Dinkelbach carry and
    /// the `(p, β_low)` extrapolation history, *not* the arena buffer. A
    /// caching layer stores one snapshot per canonical chain position and
    /// [`CurveTracker::restore`]s it into a fresh tracker to continue (or
    /// probe off) that exact position later, with bit-identical results.
    pub fn snapshot(&self) -> CurveCarry {
        CurveCarry {
            warm: self.warm.clone(),
            history: self.history.clone(),
        }
    }

    /// Restores a [`CurveTracker::snapshot`]. The tracker behaves exactly as
    /// the one the snapshot was taken from (the arena is refilled per solve,
    /// so its contents never leak across positions).
    pub fn restore(&mut self, carry: &CurveCarry) {
        self.warm.clone_from(&carry.warm);
        self.history.clone_from(&carry.history);
    }

    /// Releases the instantiated arena buffer for external reuse (e.g. a
    /// cache keeping one buffer per curve instead of one per solve).
    pub fn into_arena(self) -> Option<SelfishMiningModel> {
        self.model
    }

    /// Seeds the tracker with a previously [`CurveTracker::into_arena`]-
    /// released buffer, saving the first solve's allocation. Buffers are
    /// interchangeable within a family: every solve refills the arena for
    /// its own `(p, γ)` before reading it.
    pub fn with_arena(mut self, arena: Option<SelfishMiningModel>) -> Self {
        self.model = arena;
        self
    }

    /// One warm solve at `p` from the current state; returns the certificate
    /// and the Dinkelbach carry without touching the tracker's own carry or
    /// history. Only the arena is (re)filled in place, which is invisible:
    /// every solve refills it for its own `p` first.
    fn solve(
        &mut self,
        p: f64,
    ) -> Result<(CertifiedSolve, DinkelbachWarmStart), SelfishMiningError> {
        let instance = match self.model.as_mut() {
            Some(instance) => {
                self.family.instantiate_into(instance, p, self.gamma)?;
                instance
            }
            None => self.model.insert(self.family.instantiate(p, self.gamma)?),
        };
        let warm = self.warm.clone().map(|mut seeded| {
            seeded.beta = extrapolate_beta(p, &self.history);
            seeded
        });
        dinkelbach(instance, &self.config, warm)
    }
}

/// Detached warm-start state of a [`CurveTracker`]: the Dinkelbach carry
/// (`β` seed + bias vectors) and the `(p, β_low)` extrapolation history at
/// one chain position. [`Default`] is the cold state a fresh tracker starts
/// from. See [`CurveTracker::snapshot`]/[`CurveTracker::restore`].
#[derive(Debug, Clone, Default)]
pub struct CurveCarry {
    warm: Option<DinkelbachWarmStart>,
    history: Vec<(f64, f64)>,
}

/// Extrapolation of the revenue curve to seed the next point's Dinkelbach
/// iteration: quadratic (Newton's divided differences) through the last
/// three `(p, β_low)` points when available — the ERRev curves are smooth
/// and convex enough that this usually lands within the analysis `ε`,
/// collapsing the point to a single inner solve — degrading to linear, to
/// the neighbouring value, and to a cold `0` as history shrinks. Clamped to
/// `[0, 1]`; any seeding error is recovered by the iteration itself.
fn extrapolate_beta(p: f64, history: &[(f64, f64)]) -> f64 {
    let distinct = |a: f64, b: f64| (a - b).abs() > f64::EPSILON;
    let estimate = match *history {
        [(p0, r0), (p1, r1), (p2, r2)]
            if distinct(p0, p1) && distinct(p1, p2) && distinct(p0, p2) =>
        {
            let d01 = (r1 - r0) / (p1 - p0);
            let d12 = (r2 - r1) / (p2 - p1);
            let d012 = (d12 - d01) / (p2 - p0);
            r2 + d12 * (p - p2) + d012 * (p - p2) * (p - p1)
        }
        [.., (p1, r1), (p2, r2)] if distinct(p1, p2) => r2 + (r2 - r1) / (p2 - p1) * (p - p2),
        [.., (_, r2)] => r2,
        [] => 0.0,
    };
    estimate.clamp(0.0, 1.0)
}

/// The values of `p` used by the paper (0 to 0.3 in steps of 0.01).
pub fn paper_p_grid() -> Vec<f64> {
    (0..=30).map(|i| i as f64 / 100.0).collect()
}

/// A coarser `p` grid (steps of 0.05) used by the default benchmark harness to
/// keep wall-clock times reasonable; the curves' shape is unchanged.
pub fn coarse_p_grid() -> Vec<f64> {
    (0..=6).map(|i| i as f64 * 0.05).collect()
}

/// One row of the runtime table (Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Human-readable attack label ("our attack" or "single-tree").
    pub attack: String,
    /// Attack depth `d` (0 for the single-tree baseline).
    pub depth: usize,
    /// Forking number `f` (tree width for the single-tree baseline).
    pub forks: usize,
    /// Number of states of the constructed model.
    pub num_states: usize,
    /// Wall-clock time of model construction plus analysis, in seconds. The
    /// library does not read clocks: [`table1_row`] and
    /// [`table1_single_tree_row`] leave this at 0 and the caller that times
    /// the call (`sm_bench::table1`) fills it in.
    pub seconds: f64,
    /// The expected relative revenue obtained (not reported in the paper's
    /// table but useful for cross-checking).
    pub revenue: f64,
}

/// Computes one Table 1 row for our attack at `(d, f)` with the given
/// parameters (`seconds` left at 0 for the caller to time). The model is
/// constructed through the production path — parametric arena plus
/// instantiation — so a timing of this call reflects the stack the sweep
/// engine runs on.
///
/// # Errors
///
/// Propagates model and solver errors.
pub fn table1_row(
    p: f64,
    gamma: f64,
    depth: usize,
    forks: usize,
    max_fork_length: usize,
    epsilon: f64,
) -> Result<Table1Row, SelfishMiningError> {
    let family = ParametricModel::build(depth, forks, max_fork_length)?;
    let solve = CurveTracker::new(&family, gamma, true, AnalysisConfig::with_epsilon(epsilon))
        .advance(p)?;
    Ok(Table1Row {
        attack: "our attack".to_string(),
        depth,
        forks,
        num_states: family.num_states(),
        seconds: 0.0,
        revenue: solve.strategy_revenue,
    })
}

/// Computes the single-tree baseline row of Table 1 (`seconds` left at 0 for
/// the caller to time).
///
/// # Errors
///
/// Propagates analysis errors.
pub fn table1_single_tree_row(
    p: f64,
    gamma: f64,
    max_depth: usize,
    max_width: usize,
) -> Result<Table1Row, SelfishMiningError> {
    let result = SingleTreeAttack {
        p,
        gamma,
        max_depth,
        max_width,
    }
    .analyse()?;
    Ok(Table1Row {
        attack: "single-tree selfish mining".to_string(),
        depth: max_depth,
        forks: max_width,
        num_states: result.num_states,
        seconds: 0.0,
        revenue: result.relative_revenue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_record_positive_times_and_states() {
        let row = table1_row(0.3, 0.5, 1, 1, 4, 1e-2).unwrap();
        assert!(row.num_states > 0);
        assert_eq!(row.seconds, 0.0, "timing is the caller's job");
        assert!((0.0..1.0).contains(&row.revenue));
        let tree = table1_single_tree_row(0.3, 0.5, 4, 5).unwrap();
        assert!(tree.num_states > 0);
        assert_eq!(tree.attack, "single-tree selfish mining");
    }

    #[test]
    fn certified_curve_brackets_its_own_revenue() {
        let family = ParametricModel::build(2, 1, 4).unwrap();
        let ps = [0.1, 0.2, 0.3];
        let epsilon = 5e-3;
        let config = AnalysisConfig::with_epsilon(epsilon);
        let solves = attack_curve(&family, 0.5, &ps, config).unwrap();
        assert_eq!(solves.len(), ps.len());
        for (solve, &p) in solves.iter().zip(&ps) {
            assert_eq!(solve.p, p);
            assert_eq!(solve.gamma, 0.5);
            assert!(
                solve.beta_low <= solve.strategy_revenue + 1e-12
                    && solve.strategy_revenue <= solve.beta_up + 1e-12,
                "revenue {} outside certificate [{}, {}]",
                solve.strategy_revenue,
                solve.beta_low,
                solve.beta_up
            );
            assert!(solve.beta_up - solve.beta_low <= epsilon + 1e-12);
            assert_eq!(solve.strategy.num_states(), family.num_states());
        }
    }

    #[test]
    fn tracker_probe_is_invisible_to_the_chain() {
        // Two trackers advance the same prefix; one additionally probes an
        // off-grid point in between. The probe must not perturb any later
        // certificate — that invariance is what lets the query service
        // answer arbitrary points from a canonical lattice bit-identically.
        let family = ParametricModel::build(2, 1, 4).unwrap();
        let config = AnalysisConfig::with_epsilon(5e-3);
        let mut plain = CurveTracker::new(&family, 0.5, true, config.clone());
        let mut probed = CurveTracker::new(&family, 0.5, true, config.clone());
        let mut plain_solves = Vec::new();
        let mut probed_solves = Vec::new();
        for &p in &[0.1, 0.2, 0.3] {
            plain_solves.push(plain.advance(p).unwrap());
            let before = probed.probe(p + 0.025).unwrap();
            probed_solves.push(probed.advance(p).unwrap());
            let after = probed.probe(p + 0.025).unwrap();
            // The probe answer moves only when the chain advances under it.
            assert_eq!(before.p, after.p);
            assert!(before.beta_up - before.beta_low <= 5e-3 + 1e-12);
            assert!(after.beta_up - after.beta_low <= 5e-3 + 1e-12);
        }
        assert_eq!(plain_solves, probed_solves);
        // Probing from identical chain state is reproducible bit for bit.
        assert_eq!(plain.probe(0.25).unwrap(), probed.probe(0.25).unwrap());
        // And the curve entry point is exactly a fold over advance.
        let wrapped = attack_curve(&family, 0.5, &[0.1, 0.2, 0.3], config).unwrap();
        assert_eq!(wrapped, plain_solves);
    }

    #[test]
    fn p_grids_have_expected_shape() {
        let fine = paper_p_grid();
        assert_eq!(fine.len(), 31);
        assert_eq!(fine[0], 0.0);
        assert!((fine[30] - 0.3).abs() < 1e-12);
        let coarse = coarse_p_grid();
        assert_eq!(coarse.len(), 7);
        assert!((coarse[6] - 0.3).abs() < 1e-12);
    }
}
