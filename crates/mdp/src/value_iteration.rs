//! Relative value iteration for the maximal mean-payoff objective.
//!
//! This is the workhorse solver of the reproduction: it touches each
//! transition a constant number of times per sweep, so it scales to the large
//! state spaces produced by the selfish-mining model at higher attack depths.

use crate::parallel::{
    lock, mass_balanced_blocks, mass_capped_threads, read, sweep_scope, write, SolverParallelism,
};
use crate::{Mdp, MdpError, PositionalStrategy};
use std::ops::Range;
use std::sync::{Mutex, PoisonError, RwLock};

/// Relative value iteration (RVI) with the standard aperiodicity ("lazy")
/// transformation, for unichain MDPs under the *maximal* mean-payoff
/// objective.
///
/// The solver maintains a bias estimate `h` and repeatedly applies the Bellman
/// operator of the transformed MDP `P' = (1−τ)·I + τ·P` (which has the same
/// gain and the same optimal strategies as the original for every τ ∈ (0,1]).
/// The per-sweep increments `Δ(s) = (T h)(s) − h(s)` sandwich the optimal
/// gain: `min_s Δ(s) ≤ g* ≤ max_s Δ(s)`, which is what provides the certified
/// lower/upper bounds reported in the result.
///
/// # Example
///
/// ```
/// use sm_mdp::{CsrMdpBuilder, RelativeValueIteration};
///
/// # fn main() -> Result<(), sm_mdp::MdpError> {
/// let mut b = CsrMdpBuilder::new();
/// b.begin_state();
/// b.add_action(&[(0, 1.0)])?;
/// let mdp = b.finish()?;
/// // One expected reward per state-action pair.
/// let result = RelativeValueIteration::default().solve(&mdp, &[2.5])?;
/// assert!((result.gain - 2.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RelativeValueIteration {
    /// Convergence threshold on the span of the increment vector. The
    /// certified gain interval has width at most this value on termination.
    pub epsilon: f64,
    /// Maximum number of sweeps before giving up (full Bellman sweeps and
    /// evaluation sweeps both count); 2,000,000. Private: unit tests shrink
    /// it to drive budget exhaustion.
    max_iterations: usize,
    /// Number of *policy-restricted evaluation sweeps* interleaved after each
    /// full Bellman sweep (modified policy iteration, Puterman §10.3): the
    /// greedy action of the last full sweep is held fixed and only its
    /// transitions are swept, which costs a fraction of a full sweep (one
    /// action per state instead of all of them) while contracting the bias
    /// just as fast. Certified gain bounds are only ever taken from full
    /// Bellman sweeps — valid from any bias vector — so the interleaving
    /// never weakens the returned interval. 8; private, and `0` (plain
    /// relative value iteration) is the unit tests' reference.
    evaluation_sweeps: usize,
    /// Intra-solve parallelism: how many row blocks each sweep is cut into,
    /// one thread per block. Results (gain bounds, strategy, bias, sweep
    /// counts) are **bit-identical for any setting** — every state runs the
    /// same row kernel against the same previous iterate and the span
    /// statistics are folded in block order — so this knob only trades
    /// wall-clock time for cores. A serial solve is the one-block case of
    /// the same sweep loop, run inline; a model gets at most one block per
    /// 2,048 transitions, so small models run as one block regardless.
    pub parallelism: SolverParallelism,
}

impl Default for RelativeValueIteration {
    fn default() -> Self {
        RelativeValueIteration {
            epsilon: 1e-8,
            max_iterations: 2_000_000,
            evaluation_sweeps: 8,
            parallelism: SolverParallelism::serial(),
        }
    }
}

/// Result of a relative value iteration run.
#[derive(Debug, Clone)]
pub struct ValueIterationOutcome {
    /// Gain estimate (midpoint of the certified interval).
    pub gain: f64,
    /// Certified lower bound on the optimal gain.
    pub gain_lower: f64,
    /// Certified upper bound on the optimal gain.
    pub gain_upper: f64,
    /// Greedy strategy extracted from the final bias vector by the canonical
    /// tolerance rule (lowest-indexed action within
    /// `STRATEGY_TIE_TOLERANCE · epsilon` of the per-state maximum), so it
    /// does not depend on the iterate's numerical history — see
    /// [`RelativeValueIteration::STRATEGY_TIE_TOLERANCE`].
    pub strategy: PositionalStrategy,
    /// Final (relative) bias vector.
    pub bias: Vec<f64>,
    /// Number of sweeps performed.
    pub iterations: usize,
}

/// Book-keeping of the borderline-tie refinement phase: once a solve has
/// converged but its canonical extraction (see
/// [`RelativeValueIteration::STRATEGY_TIE_TOLERANCE`]) is borderline (see
/// [`RelativeValueIteration::STRATEGY_TIE_GUARD`]), the loop keeps sweeping
/// with a halved span target per round until the guard band clears or the
/// refinement budget — twice the sweeps the solve needed to converge — runs
/// out. The most recent converged result and its bias are kept as a fallback:
/// a refinement round still open at the budget (its halved target may lie
/// below the span the sweeps can reach in floating point) or cut by
/// `max_iterations` returns that certified result instead of sweeping on or
/// failing to converge.
struct TieRefinement {
    /// Residual-span target of the next refinement round (`∞` until the
    /// first borderline extraction).
    target: f64,
    /// Sweep count at which refinement gives up (`usize::MAX` until the
    /// first borderline extraction).
    deadline: usize,
    /// Most recent converged result (its bias left empty), returned if the
    /// sweep budget runs out.
    fallback: Option<ValueIterationOutcome>,
    /// The bias `fallback` was certified at; allocated on the first
    /// borderline extraction and reused by later rounds.
    fallback_bias: Vec<f64>,
}

impl TieRefinement {
    fn new() -> Self {
        TieRefinement {
            target: f64::INFINITY,
            deadline: usize::MAX,
            fallback: None,
            fallback_bias: Vec::new(),
        }
    }

    /// Whether the refinement budget is spent and the current extraction
    /// must be exported as-is.
    fn exhausted(&self, sweeps: usize, max_iterations: usize) -> bool {
        sweeps >= self.deadline || sweeps >= max_iterations
    }

    /// Whether an open refinement round has run past the budget, so the
    /// solve must stop and return the fallback.
    fn overdue(&self, sweeps: usize) -> bool {
        self.fallback.is_some() && sweeps >= self.deadline
    }

    /// Records a borderline converged result and tightens the span target
    /// for the next round.
    fn continue_past(&mut self, converged: ValueIterationOutcome, bias: &[f64], span: f64) {
        if self.deadline == usize::MAX {
            self.deadline = converged.iterations.saturating_mul(2);
        }
        self.target = 0.5 * span;
        self.fallback_bias.clear();
        self.fallback_bias.extend_from_slice(bias);
        self.fallback = Some(converged);
    }
}

/// The read-only inputs of one sweep: the flat CSR arena (`row_ptr`,
/// `action_ptr`, `col`, `prob`), the per-pair expected rewards and the
/// laziness τ. The row kernels destructure it into plain slices.
#[derive(Clone, Copy)]
struct Arena<'a> {
    row_ptr: &'a [u32],
    action_ptr: &'a [u32],
    col: &'a [u32],
    prob: &'a [f64],
    expected: &'a [f64],
    tau: f64,
}

/// Full Bellman sweep of the states `first..first + next.len()` against the
/// previous iterate `h`: writes each state's maximal action value to `next`
/// and the index of the first maximising action to `best`, and returns the
/// block's `(min Δ, max Δ)` with `Δ(s) = next(s) − h(s)`.
fn bellman_rows(
    arena: Arena<'_>,
    h: &[f64],
    first: usize,
    next: &mut [f64],
    best: &mut [usize],
) -> (f64, f64) {
    let Arena {
        row_ptr,
        action_ptr,
        col,
        prob,
        expected,
        tau,
    } = arena;
    let mut min_delta = f64::INFINITY;
    let mut max_delta = f64::NEG_INFINITY;
    for (i, (next_s, best_s)) in next.iter_mut().zip(best.iter_mut()).enumerate() {
        let s = first + i;
        let mut best_value = f64::NEG_INFINITY;
        let mut best_a = 0;
        let pair_start = row_ptr[s] as usize;
        let lazy = (1.0 - tau) * h[s];
        for pair in pair_start..row_ptr[s + 1] as usize {
            let mut acc = 0.0;
            for k in action_ptr[pair] as usize..action_ptr[pair + 1] as usize {
                acc += prob[k] * h[col[k] as usize];
            }
            let value = expected[pair] + tau * acc + lazy;
            if value > best_value {
                best_value = value;
                best_a = pair - pair_start;
            }
        }
        *next_s = best_value;
        *best_s = best_a;
        let delta = best_value - h[s];
        min_delta = min_delta.min(delta);
        max_delta = max_delta.max(delta);
    }
    (min_delta, max_delta)
}

/// Policy-restricted evaluation sweep of the states
/// `first..first + next.len()`: only the action `best` holds for each state
/// is swept, against the previous iterate `h`.
fn evaluation_rows(arena: Arena<'_>, h: &[f64], first: usize, best: &[usize], next: &mut [f64]) {
    let Arena {
        row_ptr,
        action_ptr,
        col,
        prob,
        expected,
        tau,
    } = arena;
    for (i, (next_s, &a)) in next.iter_mut().zip(best).enumerate() {
        let s = first + i;
        let pair = row_ptr[s] as usize + a;
        let mut acc = 0.0;
        for k in action_ptr[pair] as usize..action_ptr[pair + 1] as usize {
            acc += prob[k] * h[col[k] as usize];
        }
        *next_s = expected[pair] + tau * acc + (1.0 - tau) * h[s];
    }
}

/// One row block's scratch: its slice of the next iterate, its greedy
/// actions from the last Bellman sweep and that sweep's span statistics.
struct Chunk {
    next: Vec<f64>,
    best: Vec<usize>,
    span: (f64, f64),
}

#[derive(Clone, Copy)]
enum SweepKind {
    /// Full Bellman sweep: maximise over all actions, refresh the greedy
    /// strategy, record span statistics.
    Bellman,
    /// Policy-restricted evaluation sweep over the block's own last greedy
    /// actions.
    Evaluation,
}

impl RelativeValueIteration {
    /// Laziness τ of the aperiodicity transformation `P' = (1−τ)·I + τ·P`.
    /// Any τ ∈ (0, 1) makes every chain aperiodic without changing gains or
    /// optimal strategies; 0.95 keeps the transformed sweep close to the
    /// plain one. `sm-audit` replays residuals at the same τ.
    pub const LAZINESS: f64 = 0.95;

    /// Near-tie tolerance of the canonical strategy extraction, as a multiple
    /// of [`Self::epsilon`].
    ///
    /// The exported strategy is not the raw argmax of the last sweep, whose
    /// choice in exactly-tied states flips with the last bits of the
    /// iterate's numerical history. It is a canonical extraction from the
    /// final bias: the lowest-indexed action within
    /// `STRATEGY_TIE_TOLERANCE · epsilon` of each state's best Bellman value.
    /// The history that varies in practice is the warm start — a cold solve,
    /// a solve seeded with the previous Dinkelbach step's bias, or one seeded
    /// from a neighbouring curve point all terminate with different bias
    /// vectors, which differ by up to roughly one `epsilon` in the action
    /// values they induce. Near the fixed point every optimal action sits
    /// within the convergence span of the maximum while strictly suboptimal
    /// actions stay separated by their value gap, so a cutoff a comfortable
    /// multiple above that jitter lands on the same tie set, and with it the
    /// same strategy, from any of those histories. A cutoff at exactly
    /// `epsilon` would be maximally fragile: a state whose runner-up sits at
    /// a gap of about `epsilon` would flip in and out of the tie set with the
    /// seed. The admitted actions stay within `32·epsilon` of optimal in bias
    /// units, negligible against the analysis-level certification width,
    /// which is two orders of magnitude above the solver `epsilon`.
    pub const STRATEGY_TIE_TOLERANCE: f64 = 32.0;

    /// Guard-band factor of the borderline check, as a multiple of the
    /// residual span at extraction time.
    ///
    /// No fixed cutoff alone makes the tie set independent of the warm-start
    /// history: the gap spectrum of a large MDP is dense enough that some
    /// state's true gap eventually lands within iterate jitter of *any*
    /// cutoff. So after convergence the extraction also reports whether any
    /// action's gap falls within `guard · span` of the cutoff; if one does,
    /// the solve keeps sweeping — halving the residual span, and with it the
    /// guard band, each round — until the band clears or the refinement
    /// budget runs out. Decisions are then made by the *true* gap's side of
    /// the cutoff rather than by the seed's jitter. The factor comfortably
    /// dominates the observed gap-estimation error (about twice the residual
    /// span) and stays below [`Self::STRATEGY_TIE_TOLERANCE`], so exact ties
    /// — whose estimated gaps sit near zero, far from the cutoff — never
    /// trigger refinement.
    ///
    /// The refinement rounds also advance the returned bias vector, which is
    /// the witness `sm-audit` replays against the certified bracket. The loop
    /// is therefore part of the pinned output: turning it off leaves the
    /// certified brackets of the `d = 3, f = 2` curve unchanged but changes
    /// the audited bias witnesses, and with them the artifact bytes.
    pub const STRATEGY_TIE_GUARD: f64 = 8.0;

    /// Creates a solver with the given precision and default iteration budget.
    pub fn with_epsilon(epsilon: f64) -> Self {
        RelativeValueIteration {
            epsilon,
            ..RelativeValueIteration::default()
        }
    }

    /// Returns the solver with the given intra-solve parallelism (see the
    /// [`RelativeValueIteration::parallelism`] field).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: SolverParallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Runs the iteration on `mdp` with the expected one-step reward of every
    /// state-action pair, `expected[pair] = Σ_{s'} P(s'|s,a) · r(s,a,s')`
    /// indexed by arena pair offset, starting from the all-zero bias vector.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::RewardShapeMismatch`] if `expected` does not have
    /// one entry per pair, [`MdpError::InvalidParameter`] for a bad `epsilon`,
    /// [`MdpError::NoActions`] if some state has an empty action range, and
    /// [`MdpError::ConvergenceFailure`] if the iteration budget is exhausted
    /// before the requested precision is reached.
    pub fn solve(&self, mdp: &Mdp, expected: &[f64]) -> Result<ValueIterationOutcome, MdpError> {
        self.solve_inner(mdp, expected, None)
    }

    /// Runs the iteration warm-started from a previous bias vector.
    ///
    /// Any finite vector is a valid starting point (the certified gain bounds
    /// come from the per-sweep increments, which sandwich the optimal gain
    /// regardless of the initial bias), but a bias from a *nearby* problem —
    /// the same MDP under a slightly different reward combination, or the
    /// arena instantiated at a neighbouring parameter point — cuts the sweep
    /// count substantially. This is the entry point the parameterized sweep
    /// engine uses to chain solves across a `(p, γ)` grid.
    ///
    /// # Errors
    ///
    /// Like [`RelativeValueIteration::solve`], plus
    /// [`MdpError::RewardShapeMismatch`] if `initial_bias` does not cover
    /// every state and [`MdpError::InvalidParameter`] if it contains
    /// non-finite entries.
    pub fn solve_from(
        &self,
        mdp: &Mdp,
        expected: &[f64],
        initial_bias: &[f64],
    ) -> Result<ValueIterationOutcome, MdpError> {
        if initial_bias.len() != mdp.num_states() {
            return Err(MdpError::RewardShapeMismatch {
                detail: format!(
                    "warm-start bias covers {} states, MDP has {}",
                    initial_bias.len(),
                    mdp.num_states()
                ),
            });
        }
        if initial_bias.iter().any(|v| !v.is_finite()) {
            return Err(MdpError::InvalidParameter {
                name: "initial_bias",
                constraint: "must contain only finite values",
            });
        }
        self.solve_inner(mdp, expected, Some(initial_bias))
    }

    fn solve_inner(
        &self,
        mdp: &Mdp,
        expected: &[f64],
        initial_bias: Option<&[f64]>,
    ) -> Result<ValueIterationOutcome, MdpError> {
        if self.epsilon.is_nan() || self.epsilon <= 0.0 {
            return Err(MdpError::InvalidParameter {
                name: "epsilon",
                constraint: "must be positive",
            });
        }
        if expected.len() != mdp.num_pairs() {
            return Err(MdpError::RewardShapeMismatch {
                detail: format!(
                    "{} expected rewards for {} state-action pairs",
                    expected.len(),
                    mdp.num_pairs()
                ),
            });
        }
        let n = mdp.num_states();

        // A state with an empty action range would silently leave its Bellman
        // value at -inf and poison the whole bias vector; fail loudly instead.
        let row_ptr = mdp.layout().row_ptr();
        if let Some(state) = (0..n).find(|&s| row_ptr[s + 1] == row_ptr[s]) {
            return Err(MdpError::NoActions { state });
        }

        let h = match initial_bias {
            Some(bias) => bias.to_vec(),
            None => vec![0.0; n],
        };
        let layout = mdp.layout();
        let arena = Arena {
            row_ptr,
            action_ptr: layout.action_ptr(),
            col: layout.col(),
            prob: mdp.probabilities(),
            expected,
            tau: Self::LAZINESS,
        };
        let threads = mass_capped_threads(self.parallelism.thread_count(), mdp.num_transitions());
        let blocks = if threads > 1 {
            // Per-state sweep cost is its transition count: cumulative mass
            // at state s is the arena offset of its first transition.
            let cumulative: Vec<usize> = (0..=n)
                .map(|s| arena.action_ptr[row_ptr[s] as usize] as usize)
                .collect();
            mass_balanced_blocks(&cumulative, threads)
        } else {
            // One block, the serial solve: no cumulative-mass pass.
            std::iter::once(0..n).collect()
        };
        let h = RwLock::new(h);
        let mut outcome = self.sweep(arena, &blocks, &h)?;
        outcome.bias = h.into_inner().unwrap_or_else(PoisonError::into_inner);
        Ok(outcome)
    }

    /// Canonical greedy extraction from a converged bias vector: for every
    /// state, the *lowest-indexed* action whose Bellman value lies within
    /// [`Self::STRATEGY_TIE_TOLERANCE`]`·`[`Self::epsilon`] of the state's
    /// maximum. The aperiodicity term `(1−τ)·h(s)` is identical for all
    /// actions of a state, so it is dropped from the comparison. See
    /// [`Self::STRATEGY_TIE_TOLERANCE`] for why this — and not the raw argmax
    /// of the final sweep — is what the solver exports.
    ///
    /// Also reports whether the extraction is *borderline*: some action's
    /// gap to its state's maximum lies within `margin` of the tie cutoff, so
    /// the discrete tie set could differ under a bias reached from a
    /// different warm start. Callers refine (keep sweeping) while this
    /// holds — see [`Self::STRATEGY_TIE_GUARD`].
    fn canonical_strategy(
        &self,
        arena: Arena<'_>,
        h: &[f64],
        margin: f64,
    ) -> (PositionalStrategy, bool) {
        let cutoff_gap = Self::STRATEGY_TIE_TOLERANCE * self.epsilon;
        let mut choices = vec![0usize; h.len()];
        let mut borderline = false;
        // Per-state action values, buffered so the arena is swept once.
        let mut values: Vec<f64> = Vec::new();
        for (s, choice) in choices.iter_mut().enumerate() {
            values.clear();
            let mut best = f64::NEG_INFINITY;
            for pair in arena.row_ptr[s] as usize..arena.row_ptr[s + 1] as usize {
                let mut acc = 0.0;
                for k in arena.action_ptr[pair] as usize..arena.action_ptr[pair + 1] as usize {
                    acc += arena.prob[k] * h[arena.col[k] as usize];
                }
                let value = arena.expected[pair] + arena.tau * acc;
                values.push(value);
                best = best.max(value);
            }
            let cutoff = best - cutoff_gap;
            let mut chosen = false;
            for (a, &value) in values.iter().enumerate() {
                if (best - value - cutoff_gap).abs() <= margin {
                    borderline = true;
                }
                if !chosen && value >= cutoff {
                    *choice = a;
                    chosen = true;
                }
            }
        }
        (PositionalStrategy::new(choices), borderline)
    }

    /// The sweep loop. The state range is cut into the contiguous row
    /// `blocks` (one block `0..n` for a serial solve); every sweep runs each
    /// block's row kernel against the shared previous iterate `h` — block 0
    /// inline, the others on a scoped pool kept alive across all sweeps of
    /// the solve, none when there is one block — and each block writes a
    /// disjoint slice of the next iterate. The renormalisation then shifts
    /// every block's slice into `h` and folds the span statistics in block
    /// order. Each state runs the same arithmetic against the same previous
    /// iterate whatever the partition, so the outcome — gain bounds,
    /// strategy, bias and sweep count — is bit-identical for any thread
    /// count. The returned outcome's bias is left empty: on success `h`
    /// holds the bias the result was certified at, for the caller to move in.
    fn sweep(
        &self,
        arena: Arena<'_>,
        blocks: &[Range<usize>],
        h: &RwLock<Vec<f64>>,
    ) -> Result<ValueIterationOutcome, MdpError> {
        let chunks: Vec<Mutex<Chunk>> = blocks
            .iter()
            .map(|range| {
                Mutex::new(Chunk {
                    next: vec![0.0; range.len()],
                    best: vec![0usize; range.len()],
                    span: (f64::INFINITY, f64::NEG_INFINITY),
                })
            })
            .collect();

        let run_block = |block: usize, kind: &SweepKind| {
            let first = blocks[block].start;
            let h = read(h);
            let mut chunk = lock(&chunks[block]);
            let Chunk { next, best, span } = &mut *chunk;
            match kind {
                SweepKind::Bellman => *span = bellman_rows(arena, &h, first, next, best),
                SweepKind::Evaluation => evaluation_rows(arena, &h, first, best, next),
            }
        };
        // Relative step: every state of the new iterate shifted so the
        // reference state 0 (the first entry of block 0, which every
        // partition of a non-empty arena starts with) stays at 0. Returns
        // the span statistics of the last Bellman sweep folded in block
        // order.
        let renormalise = || -> (f64, f64) {
            let offset = lock(&chunks[0]).next[0];
            let mut h = write(h);
            let mut min_delta = f64::INFINITY;
            let mut max_delta = f64::NEG_INFINITY;
            for (range, chunk) in blocks.iter().zip(&chunks) {
                let chunk = lock(chunk);
                min_delta = min_delta.min(chunk.span.0);
                max_delta = max_delta.max(chunk.span.1);
                for (h_s, &value) in h[range.clone()].iter_mut().zip(&chunk.next) {
                    *h_s = value - offset;
                }
            }
            (min_delta, max_delta)
        };

        sweep_scope(blocks.len() - 1, run_block, |pool| {
            let mut sweeps = 0usize;
            let mut refine = TieRefinement::new();
            while sweeps < self.max_iterations {
                // Full Bellman sweep: refreshes the greedy strategy and
                // yields the certified `min Δ ≤ g* ≤ max Δ` sandwich (valid
                // for the current h no matter how it was produced).
                sweeps += 1;
                pool.round(SweepKind::Bellman);
                let (min_delta, max_delta) = renormalise();
                let span = max_delta - min_delta;
                if span < self.epsilon.min(refine.target) {
                    let h = read(h);
                    let (strategy, borderline) =
                        self.canonical_strategy(arena, &h, Self::STRATEGY_TIE_GUARD * span);
                    let converged = ValueIterationOutcome {
                        gain: 0.5 * (min_delta + max_delta),
                        gain_lower: min_delta,
                        gain_upper: max_delta,
                        strategy,
                        bias: Vec::new(),
                        iterations: sweeps,
                    };
                    if !borderline || refine.exhausted(sweeps, self.max_iterations) {
                        return Ok(converged);
                    }
                    refine.continue_past(converged, &h, span);
                } else if refine.overdue(sweeps) {
                    break;
                }

                // Policy-restricted evaluation sweeps: hold the greedy
                // strategy fixed and sweep only its transitions — a fraction
                // of the full sweep's cost with the same per-sweep
                // contraction of the bias.
                for _ in 0..self.evaluation_sweeps {
                    if sweeps >= self.max_iterations {
                        break;
                    }
                    sweeps += 1;
                    pool.round(SweepKind::Evaluation);
                    renormalise();
                }
            }
            match refine.fallback {
                Some(converged) => {
                    std::mem::swap(&mut *write(h), &mut refine.fallback_bias);
                    Ok(converged)
                }
                None => Err(MdpError::ConvergenceFailure {
                    method: "relative value iteration",
                    iterations: self.max_iterations,
                }),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMdpBuilder;

    /// Per-pair expected rewards `Σ_k P_k · r(s, a, t_k)` of a per-transition
    /// reward function, summed over each pair's successors in arena order.
    fn expected(mdp: &Mdp, r: impl Fn(usize, usize, usize) -> f64) -> Vec<f64> {
        (0..mdp.num_states())
            .flat_map(|s| (0..mdp.num_actions(s)).map(move |a| (s, a)))
            .map(|(s, a)| {
                let (cols, probs) = mdp.successors(s, a);
                cols.iter()
                    .zip(probs)
                    .map(|(&t, &p)| p * r(s, a, t as usize))
                    .sum()
            })
            .collect()
    }

    fn solve(mdp: &Mdp, rewards: &[f64]) -> ValueIterationOutcome {
        RelativeValueIteration::with_epsilon(1e-9)
            .solve(mdp, rewards)
            .unwrap()
    }

    #[test]
    fn single_state_gain_is_reward() {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        let mdp = b.finish().unwrap();
        let r = expected(&mdp, |_, _, _| -1.25);
        let out = solve(&mdp, &r);
        assert!((out.gain + 1.25).abs() < 1e-8);
        assert!(out.gain_lower <= out.gain && out.gain <= out.gain_upper);
    }

    #[test]
    fn chooses_the_better_loop() {
        // State 0 can stay (reward 1) or go to state 1 (reward 0) where the
        // chain loops with reward 3. Optimal gain is 3.
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        b.add_action(&[(1, 1.0)]).unwrap();
        b.begin_state();
        b.add_action(&[(1, 1.0)]).unwrap();
        let mdp = b.finish().unwrap();
        let r = expected(&mdp, |s, a, _| match (s, a) {
            (0, 0) => 1.0,
            (0, 1) => 0.0,
            (1, 0) => 3.0,
            _ => unreachable!(),
        });
        let out = solve(&mdp, &r);
        assert!((out.gain - 3.0).abs() < 1e-7);
        assert_eq!(
            out.strategy.action(0),
            1,
            "should leave for the better loop"
        );
    }

    #[test]
    fn periodic_chain_converges_thanks_to_laziness() {
        // A deterministic 2-cycle alternating rewards 0 and 1: gain 0.5.
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(1, 1.0)]).unwrap();
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        let mdp = b.finish().unwrap();
        let r = expected(&mdp, |s, _, _| s as f64);
        let out = solve(&mdp, &r);
        assert!((out.gain - 0.5).abs() < 1e-7);
    }

    #[test]
    fn stochastic_mdp_matches_hand_computation() {
        // Single action: stay in 0 w.p. 0.75 earning 2, move to 1 earning 0;
        // from 1 return to 0 w.p. 1 earning 0. Stationary distribution is
        // (0.8, 0.2); expected reward in state 0 is 0.75*2 = 1.5, so the gain
        // is 0.8 * 1.5 = 1.2.
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(0, 0.75), (1, 0.25)]).unwrap();
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        let mdp = b.finish().unwrap();
        let r = expected(&mdp, |s, _, t| if s == 0 && t == 0 { 2.0 } else { 0.0 });
        let out = solve(&mdp, &r);
        assert!((out.gain - 1.2).abs() < 1e-7, "gain {}", out.gain);
    }

    #[test]
    fn rejects_invalid_parameters_and_shapes() {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        let mdp = b.finish().unwrap();
        let r = vec![0.0; mdp.num_pairs()];

        let bad_eps = RelativeValueIteration {
            epsilon: 0.0,
            ..Default::default()
        };
        assert!(matches!(
            bad_eps.solve(&mdp, &r),
            Err(MdpError::InvalidParameter {
                name: "epsilon",
                ..
            })
        ));

        let mut other = CsrMdpBuilder::new();
        other.begin_state();
        other.add_action(&[(1, 1.0)]).unwrap();
        other.begin_state();
        other.add_action(&[(0, 1.0)]).unwrap();
        let other = other.finish().unwrap();
        let wrong = vec![0.0; other.num_pairs()];
        assert!(matches!(
            RelativeValueIteration::default().solve(&mdp, &wrong),
            Err(MdpError::RewardShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_action_range_fails_loudly() {
        use crate::CsrLayout;
        use std::sync::Arc;
        // State 1 has no actions — only constructible through the raw-parts
        // path (the builder rejects it); the solver must not propagate -inf.
        let layout = CsrLayout::from_raw_parts(vec![0, 1, 1], vec![0, 1], vec![0]).unwrap();
        let mdp = Mdp::from_raw_parts(Arc::new(layout), vec![1.0]).unwrap();
        let rewards = vec![0.0; mdp.num_pairs()];
        assert!(matches!(
            RelativeValueIteration::default().solve(&mdp, &rewards),
            Err(MdpError::NoActions { state: 1 })
        ));
    }

    #[test]
    fn warm_start_validates_and_matches_cold_result() {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(0, 0.75), (1, 0.25)]).unwrap();
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        let mdp = b.finish().unwrap();
        let r = expected(&mdp, |s, _, t| if s == 0 && t == 0 { 2.0 } else { 0.0 });
        let solver = RelativeValueIteration::with_epsilon(1e-9);
        let cold = solver.solve(&mdp, &r).unwrap();
        let warm = solver.solve_from(&mdp, &r, &cold.bias).unwrap();
        assert!((warm.gain - cold.gain).abs() < 2e-9);
        assert_eq!(warm.strategy, cold.strategy);
        assert!(warm.iterations <= cold.iterations);

        assert!(matches!(
            solver.solve_from(&mdp, &r, &[0.0]),
            Err(MdpError::RewardShapeMismatch { .. })
        ));
        assert!(matches!(
            solver.solve_from(&mdp, &r, &[0.0, f64::NAN]),
            Err(MdpError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn interleaved_evaluation_sweeps_match_plain_value_iteration() {
        // Modified policy iteration (evaluation sweeps interleaved) and plain
        // RVI must certify the same gain and strategy.
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(1, 0.6), (2, 0.4)]).unwrap();
        b.add_action(&[(0, 0.5), (2, 0.5)]).unwrap();
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        b.add_action(&[(2, 1.0)]).unwrap();
        b.begin_state();
        b.add_action(&[(0, 0.5), (1, 0.5)]).unwrap();
        let mdp = b.finish().unwrap();
        let r = expected(&mdp, |s, a, t| {
            0.3 * s as f64 + 0.7 * a as f64 - 0.1 * t as f64
        });
        let plain = RelativeValueIteration {
            epsilon: 1e-10,
            evaluation_sweeps: 0,
            ..Default::default()
        }
        .solve(&mdp, &r)
        .unwrap();
        let interleaved = RelativeValueIteration {
            epsilon: 1e-10,
            evaluation_sweeps: 8,
            ..Default::default()
        }
        .solve(&mdp, &r)
        .unwrap();
        assert!((plain.gain - interleaved.gain).abs() < 1e-9);
        assert_eq!(plain.strategy, interleaved.strategy);
        assert!(interleaved.gain_lower <= interleaved.gain_upper);
    }

    /// A unichain of `n` states whose two actions share their successors
    /// (state 0 with probability `reset`, else the next state) and differ in
    /// reward by `gap`; the rewards vary per state so the bias is not flat.
    fn twin_action_mdp(n: usize, gap: f64, reset: f64) -> (Mdp, Vec<f64>) {
        let mut b = CsrMdpBuilder::new();
        for s in 0..n {
            let successors = [(0, reset), ((s + 1) % n, 1.0 - reset)];
            b.begin_state();
            b.add_action(&successors).unwrap();
            b.add_action(&successors).unwrap();
        }
        let mdp = b.finish().unwrap();
        let rewards = expected(&mdp, |s, a, _| {
            0.25 * (s % 5) as f64 - if a == 1 { gap } else { 0.0 }
        });
        (mdp, rewards)
    }

    fn assert_same_outcome(a: &ValueIterationOutcome, b: &ValueIterationOutcome) {
        assert_eq!(a.gain_lower.to_bits(), b.gain_lower.to_bits());
        assert_eq!(a.gain_upper.to_bits(), b.gain_upper.to_bits());
        assert_eq!(a.gain.to_bits(), b.gain.to_bits());
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.iterations, b.iterations);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.bias), bits(&b.bias));
    }

    #[test]
    fn borderline_ties_refine_through_the_single_sweep_driver() {
        // A power-of-two ε keeps the reward gaps exact, so the action gap
        // sits on the tie cutoff up to rounding and every extraction stays
        // borderline until the refinement budget runs out.
        let epsilon = 2f64.powi(-20);
        let cutoff = RelativeValueIteration::STRATEGY_TIE_TOLERANCE * epsilon;
        let n = 1600;
        let (tied_mdp, tied) = twin_action_mdp(n, cutoff, 0.1);
        let (clear_mdp, clear) = twin_action_mdp(n, 2.0 * cutoff, 0.1);
        assert!(tied_mdp.num_transitions() > 3 * crate::parallel::MIN_BLOCK_MASS);
        let solver = |threads: usize, max_iterations: usize| RelativeValueIteration {
            epsilon,
            max_iterations,
            parallelism: SolverParallelism::threads(threads),
            ..Default::default()
        };
        let budget = 10_000;

        // The lower action never wins a Bellman maximum, so both models
        // sweep identical iterates; the clear gap is not borderline and
        // returns at the first convergence.
        let first = solver(1, budget).solve(&clear_mdp, &clear).unwrap();
        // The tied model keeps refining until its budget of twice the
        // first convergence's sweeps is spent, and returns at the first
        // Bellman sweep past it (one Bellman plus `evaluation_sweeps`
        // evaluation sweeps per round).
        let refined = solver(1, budget).solve(&tied_mdp, &tied).unwrap();
        let deadline = 2 * first.iterations;
        let round = 1 + solver(1, budget).evaluation_sweeps;
        assert!(
            (deadline..deadline + round).contains(&refined.iterations),
            "refinement must end at its budget: first convergence at {}, returned at {}",
            first.iterations,
            refined.iterations
        );
        assert!(refined.gain_upper - refined.gain_lower < first.gain_upper - first.gain_lower);

        // Cut off one sweep after the first convergence, the solve returns
        // the converged result it kept as a fallback.
        let cut_budget = first.iterations + 1;
        let cut = solver(1, cut_budget).solve(&tied_mdp, &tied).unwrap();
        assert_eq!(cut.iterations, first.iterations);
        assert_eq!(cut.gain_lower.to_bits(), first.gain_lower.to_bits());
        assert_eq!(cut.gain_upper.to_bits(), first.gain_upper.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cut.bias), bits(&first.bias));

        // Four row blocks reproduce both outcomes bit for bit.
        assert_same_outcome(
            &refined,
            &solver(4, budget).solve(&tied_mdp, &tied).unwrap(),
        );
        assert_same_outcome(
            &cut,
            &solver(4, cut_budget).solve(&tied_mdp, &tied).unwrap(),
        );
    }

    #[test]
    fn refinement_below_the_floating_point_floor_stops_at_its_deadline() {
        // With reset probability ½ the iterate contracts to the
        // floating-point floor within a few rounds, so the halved span
        // target of a late refinement round is out of reach: the solve must
        // return its fallback at the first Bellman sweep past the deadline
        // instead of sweeping on to `max_iterations`.
        let epsilon = 2f64.powi(-20);
        let cutoff = RelativeValueIteration::STRATEGY_TIE_TOLERANCE * epsilon;
        let n = 1600;
        let (tied_mdp, tied) = twin_action_mdp(n, cutoff, 0.5);
        let (clear_mdp, clear) = twin_action_mdp(n, 2.0 * cutoff, 0.5);
        let solver = |threads: usize, max_iterations: usize| RelativeValueIteration {
            epsilon,
            max_iterations,
            parallelism: SolverParallelism::threads(threads),
            ..Default::default()
        };
        let first = solver(1, 10_000).solve(&clear_mdp, &clear).unwrap();
        let deadline = 2 * first.iterations;
        let bound = deadline + solver(1, 0).evaluation_sweeps + 1;

        // Held to the bound, the solve can only return a result it has
        // converged to before the deadline.
        let bounded = solver(1, bound).solve(&tied_mdp, &tied).unwrap();
        assert!(
            bounded.iterations < deadline,
            "expected the fallback of an unfinished round, got a result certified at sweep {} \
             (deadline {deadline})",
            bounded.iterations
        );
        for threads in [1, 4] {
            // An unlimited budget returns the same fallback just as soon; a
            // solve that kept sweeping would never answer.
            let (unlimited, mdp, rewards) =
                (solver(threads, usize::MAX), tied_mdp.clone(), tied.clone());
            let (sender, receiver) = std::sync::mpsc::channel();
            let solve = std::thread::spawn(move || {
                let outcome = unlimited.solve(&mdp, &rewards);
                let _ = sender.send(());
                outcome
            });
            let waited = receiver.recv_timeout(std::time::Duration::from_secs(120));
            assert!(
                !matches!(waited, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
                "refinement kept sweeping past its deadline"
            );
            let unbounded = solve.join().expect("unbounded solve panicked").unwrap();
            assert_same_outcome(&bounded, &unbounded);
            assert_same_outcome(
                &bounded,
                &solver(threads, bound).solve(&tied_mdp, &tied).unwrap(),
            );
        }
    }

    #[test]
    fn iteration_budget_is_respected() {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(1, 1.0)]).unwrap();
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        let mdp = b.finish().unwrap();
        let r = expected(&mdp, |s, _, _| s as f64);
        let solver = RelativeValueIteration {
            epsilon: 1e-14,
            max_iterations: 2,
            ..Default::default()
        };
        assert!(matches!(
            solver.solve(&mdp, &r),
            Err(MdpError::ConvergenceFailure { .. })
        ));
    }
}
