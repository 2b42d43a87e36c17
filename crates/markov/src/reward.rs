//! Long-run average (gain) evaluation of a unichain by fused sparse sweeps.

use crate::parallel::{mass_balanced_blocks, mass_capped_threads, sweep_scope};
use crate::{MarkovChain, MarkovError, SolverParallelism};
use std::sync::{Mutex, PoisonError, RwLock};

/// Span tolerance at which [`iterative_gains`] stops refining a gain: each
/// returned gain is the midpoint of a certified interval narrower than this.
const GAIN_EPSILON: f64 = 1e-9;

/// Sweep budget of [`iterative_gains`]; exhausting it means the chain is not
/// unichain (state-dependent gains keep the span open forever).
const GAIN_SWEEP_LIMIT: usize = 5_000_000;

/// Long-run average rewards (gains) of a *unichain* Markov chain under
/// several reward vectors at once, computed with sparse relative value
/// iteration.
///
/// A sweep touches every transition once, so the method scales to chains of
/// tens of thousands of states where dense linear solves are prohibitive.
/// The reward functions share the sweeps: the transition arrays (the
/// memory-bound part of a sweep) are walked once per iteration while one bias
/// vector per reward function is updated in the same pass. Evaluating the
/// selfish-mining revenue ratio `g_A / (g_A + g_H)` needs the gains of `r_A`
/// and `r_H` under the *same* chain, which this computes at nearly the cost
/// of one. Each reward's own span certifies its gain to within `1e-9`; the
/// loop runs until every span has closed (gains whose span closed early stop
/// being refined — their certified interval is frozen).
///
/// `seed` warm-starts the sweeps from previously converged bias vectors (one
/// per reward function), and the final bias vectors are returned for the
/// next call. Seeding with the bias of a *similar* chain — e.g. the one
/// induced at the previous point of a parameter sweep — cuts the sweep
/// count; any finite seed is valid (the per-sweep span sandwich certifies the
/// gain regardless of the starting bias) and seeds of the wrong shape are
/// ignored.
///
/// The state range is partitioned into contiguous blocks balanced by
/// transition mass ([`mass_balanced_blocks`]); each sweep fans the blocks
/// over a scoped pool, every block writing a disjoint slice of the next
/// iterate, and the per-reward span statistics are reduced per block and
/// folded in block order. Each state runs exactly the serial arithmetic, so
/// gains, bias vectors and sweep counts are **bit-identical for any thread
/// count** — [`SolverParallelism`] only trades wall-clock time for cores.
/// Small chains (by [`crate::MIN_BLOCK_MASS`]) run serially regardless of
/// the knob.
///
/// # Errors
///
/// Returns [`MarkovError::RewardDimensionMismatch`] if a reward vector does
/// not match the number of states and [`MarkovError::ConvergenceFailure`] if
/// some span is still open after 5,000,000 sweeps (e.g. because the chain is
/// not unichain and therefore has no single gain).
///
/// # Example
///
/// ```
/// use sm_markov::{iterative_gains, MarkovChain, SolverParallelism};
///
/// # fn main() -> Result<(), sm_markov::MarkovError> {
/// let chain = MarkovChain::from_rows(vec![
///     vec![(0, 0.5), (1, 0.5)],
///     vec![(0, 0.5), (1, 0.5)],
/// ])?;
/// let (gains, _bias) =
///     iterative_gains(&chain, &[&[1.0, 0.0], &[0.0, 2.0]], None, SolverParallelism::serial())?;
/// assert!((gains[0] - 0.5).abs() < 1e-8);
/// assert!((gains[1] - 1.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn iterative_gains(
    chain: &MarkovChain,
    rewards: &[&[f64]],
    seed: Option<&[Vec<f64>]>,
    parallelism: SolverParallelism,
) -> Result<(Vec<f64>, Vec<Vec<f64>>), MarkovError> {
    gain_sweeps(
        chain,
        rewards,
        seed,
        parallelism,
        GAIN_EPSILON,
        GAIN_SWEEP_LIMIT,
    )
}

/// The lazy (aperiodicity) transformation parameter of the fused gain sweeps:
/// `P' = (1 − τ)·I + τ·P` has the same stationary distribution and gain,
/// with guaranteed convergence of the span on periodic chains.
const GAIN_SWEEP_LAZINESS: f64 = 0.9;

/// [`iterative_gains`] with an explicit span tolerance and sweep budget — the
/// seam that lets the unit tests exhaust a small budget.
fn gain_sweeps(
    chain: &MarkovChain,
    rewards: &[&[f64]],
    seed: Option<&[Vec<f64>]>,
    parallelism: SolverParallelism,
    epsilon: f64,
    max_iterations: usize,
) -> Result<(Vec<f64>, Vec<Vec<f64>>), MarkovError> {
    let n = chain.num_states();
    for reward in rewards {
        if reward.len() != n {
            return Err(MarkovError::RewardDimensionMismatch {
                expected: n,
                actual: reward.len(),
            });
        }
    }
    let k = rewards.len();
    if k == 0 {
        return Ok((Vec::new(), Vec::new()));
    }
    let h = match seed {
        Some(seed)
            if seed.len() == k
                && seed
                    .iter()
                    .all(|b| b.len() == n && b.iter().all(|v| v.is_finite())) =>
        {
            seed.to_vec()
        }
        _ => vec![vec![0.0; n]; k],
    };
    let threads = mass_capped_threads(parallelism.thread_count(), chain.matrix().nnz());
    if threads > 1 {
        gain_sweeps_parallel(chain, rewards, epsilon, max_iterations, h, threads)
    } else {
        gain_sweeps_serial(chain, rewards, epsilon, max_iterations, h)
    }
}

/// The single-threaded sweep loop of [`iterative_gains`].
fn gain_sweeps_serial(
    chain: &MarkovChain,
    rewards: &[&[f64]],
    epsilon: f64,
    max_iterations: usize,
    mut h: Vec<Vec<f64>>,
) -> Result<(Vec<f64>, Vec<Vec<f64>>), MarkovError> {
    let n = chain.num_states();
    let k = rewards.len();
    let tau = GAIN_SWEEP_LAZINESS;
    let mut next = vec![vec![0.0; n]; k];
    let mut gain = vec![f64::NAN; k];
    let mut open = vec![true; k];
    for _ in 0..max_iterations {
        let mut min_delta = vec![f64::INFINITY; k];
        let mut max_delta = vec![f64::NEG_INFINITY; k];
        for s in 0..n {
            let (targets, probs) = chain.successors(s);
            for r in 0..k {
                if !open[r] {
                    continue;
                }
                let h_r = &h[r];
                let mut value = rewards[r][s] + (1.0 - tau) * h_r[s];
                for (&t, &p) in targets.iter().zip(probs) {
                    value += tau * p * h_r[t as usize];
                }
                let delta = value - h_r[s];
                min_delta[r] = min_delta[r].min(delta);
                max_delta[r] = max_delta[r].max(delta);
                next[r][s] = value;
            }
        }
        let mut any_open = false;
        for r in 0..k {
            if !open[r] {
                continue;
            }
            let offset = next[r][0];
            for s in 0..n {
                h[r][s] = next[r][s] - offset;
            }
            if max_delta[r] - min_delta[r] < epsilon {
                gain[r] = 0.5 * (min_delta[r] + max_delta[r]);
                open[r] = false;
            } else {
                any_open = true;
            }
        }
        if !any_open {
            return Ok((gain, h));
        }
    }
    Err(MarkovError::ConvergenceFailure {
        method: "iterative gain",
        iterations: max_iterations,
    })
}

/// Row-block parallel variant of [`gain_sweeps_serial`]: same arithmetic per
/// state, same fold order, bit-identical results (see [`iterative_gains`]).
fn gain_sweeps_parallel(
    chain: &MarkovChain,
    rewards: &[&[f64]],
    epsilon: f64,
    max_iterations: usize,
    h: Vec<Vec<f64>>,
    threads: usize,
) -> Result<(Vec<f64>, Vec<Vec<f64>>), MarkovError> {
    let n = chain.num_states();
    let k = rewards.len();
    let tau = GAIN_SWEEP_LAZINESS;
    let mut cumulative = Vec::with_capacity(n + 1);
    cumulative.push(0usize);
    for s in 0..n {
        cumulative.push(cumulative[s] + chain.successors(s).0.len());
    }
    let blocks = mass_balanced_blocks(&cumulative, threads);
    if blocks.len() <= 1 {
        return gain_sweeps_serial(chain, rewards, epsilon, max_iterations, h);
    }
    let h = RwLock::new(h);
    // Per-block scratch: one next-iterate slice per reward function, locked
    // only by its own block's worker (and by the driver between rounds).
    let chunks: Vec<Mutex<Vec<Vec<f64>>>> = blocks
        .iter()
        .map(|range| Mutex::new(vec![vec![0.0; range.len()]; k]))
        .collect();

    // One round = one fused sweep over all open reward functions; the job
    // token carries the open mask, the result the per-reward span statistics.
    let run_block = |block: usize, open: &Vec<bool>| -> Vec<(f64, f64)> {
        let range = blocks[block].clone();
        // Lock poisoning only means another block's worker panicked; the
        // buffers hold plain numeric data written in disjoint slices, so
        // recovery is sound — the originating panic still propagates through
        // the sweep scope's join.
        let h_read = h.read().unwrap_or_else(PoisonError::into_inner);
        let mut chunk = chunks[block].lock().unwrap_or_else(PoisonError::into_inner);
        let mut stats = vec![(f64::INFINITY, f64::NEG_INFINITY); k];
        for s in range.clone() {
            let (targets, probs) = chain.successors(s);
            for r in 0..k {
                if !open[r] {
                    continue;
                }
                let h_r = &h_read[r];
                let mut value = rewards[r][s] + (1.0 - tau) * h_r[s];
                for (&t, &p) in targets.iter().zip(probs) {
                    value += tau * p * h_r[t as usize];
                }
                let delta = value - h_r[s];
                stats[r].0 = stats[r].0.min(delta);
                stats[r].1 = stats[r].1.max(delta);
                chunk[r][s - range.start] = value;
            }
        }
        stats
    };

    let gains = sweep_scope(blocks.len() - 1, run_block, |pool| {
        let mut gain = vec![f64::NAN; k];
        let mut open = vec![true; k];
        for _ in 0..max_iterations {
            let round = pool.round(open.clone());
            // Fold the span statistics in block order.
            let mut min_delta = vec![f64::INFINITY; k];
            let mut max_delta = vec![f64::NEG_INFINITY; k];
            for stats in &round {
                for r in 0..k {
                    if open[r] {
                        min_delta[r] = min_delta[r].min(stats[r].0);
                        max_delta[r] = max_delta[r].max(stats[r].1);
                    }
                }
            }
            // Renormalise each open bias so state 0 stays at 0 (state 0 is
            // always in block 0), exactly like the serial update.
            let mut h_write = h.write().unwrap_or_else(PoisonError::into_inner);
            let mut offsets = vec![0.0; k];
            {
                let chunk0 = chunks[0].lock().unwrap_or_else(PoisonError::into_inner);
                for r in 0..k {
                    if open[r] {
                        offsets[r] = chunk0[r][0];
                    }
                }
            }
            for (range, chunk) in blocks.iter().zip(&chunks) {
                let chunk = chunk.lock().unwrap_or_else(PoisonError::into_inner);
                for r in 0..k {
                    if !open[r] {
                        continue;
                    }
                    for (i, &value) in chunk[r].iter().enumerate() {
                        h_write[r][range.start + i] = value - offsets[r];
                    }
                }
            }
            drop(h_write);
            let mut any_open = false;
            for r in 0..k {
                if !open[r] {
                    continue;
                }
                if max_delta[r] - min_delta[r] < epsilon {
                    gain[r] = 0.5 * (min_delta[r] + max_delta[r]);
                    open[r] = false;
                } else {
                    any_open = true;
                }
            }
            if !any_open {
                return Ok(gain);
            }
        }
        Err(MarkovError::ConvergenceFailure {
            method: "iterative gain",
            iterations: max_iterations,
        })
    })?;
    Ok((
        gains,
        h.into_inner().unwrap_or_else(PoisonError::into_inner),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial_gains(chain: &MarkovChain, rewards: &[&[f64]]) -> Vec<f64> {
        iterative_gains(chain, rewards, None, SolverParallelism::serial())
            .unwrap()
            .0
    }

    #[test]
    fn iterative_gain_handles_periodic_chains() {
        let chain = MarkovChain::from_rows(vec![vec![(1, 1.0)], vec![(0, 1.0)]]).unwrap();
        let gain = serial_gains(&chain, &[&[1.0, 0.0]])[0];
        assert!((gain - 0.5).abs() < 1e-8);
    }

    #[test]
    fn fused_gains_match_separate_evaluations() {
        let chain = MarkovChain::from_rows(vec![
            vec![(0, 0.2), (1, 0.5), (2, 0.3)],
            vec![(0, 0.6), (2, 0.4)],
            vec![(1, 1.0)],
        ])
        .unwrap();
        let r1 = [3.0, 0.0, 1.0];
        let r2 = [0.0, 2.0, 0.5];
        let fused = serial_gains(&chain, &[&r1, &r2]);
        let g1 = serial_gains(&chain, &[&r1])[0];
        let g2 = serial_gains(&chain, &[&r2])[0];
        assert!((fused[0] - g1).abs() < 1e-9);
        assert!((fused[1] - g2).abs() < 1e-9);
        assert!(serial_gains(&chain, &[]).is_empty());
        assert!(iterative_gains(&chain, &[&r1[..2]], None, SolverParallelism::serial()).is_err());
    }

    #[test]
    fn seeded_gains_reuse_converged_bias() {
        let chain =
            MarkovChain::from_rows(vec![vec![(0, 0.7), (1, 0.3)], vec![(0, 0.6), (1, 0.4)]])
                .unwrap();
        let r = [3.0, 0.0];
        let serial = SolverParallelism::serial();
        let (cold, bias) = iterative_gains(&chain, &[&r], None, serial).unwrap();
        let (warm, _) = iterative_gains(&chain, &[&r], Some(&bias), serial).unwrap();
        assert!((cold[0] - warm[0]).abs() < 1e-9);
        // A mis-shaped seed is ignored rather than rejected.
        let bad_seed = vec![vec![0.0; 7]];
        let (ignored, _) = iterative_gains(&chain, &[&r], Some(&bad_seed), serial).unwrap();
        assert!((ignored[0] - cold[0]).abs() < 1e-9);
    }

    #[test]
    fn iterative_gain_validates_inputs_and_budget() {
        let chain = MarkovChain::from_rows(vec![vec![(0, 1.0)]]).unwrap();
        assert!(matches!(
            iterative_gains(&chain, &[&[1.0, 2.0]], None, SolverParallelism::serial()),
            Err(MarkovError::RewardDimensionMismatch { .. })
        ));
        // A multichain has state-dependent gains, so the span never closes.
        let multichain = MarkovChain::from_rows(vec![vec![(0, 1.0)], vec![(1, 1.0)]]).unwrap();
        assert!(matches!(
            gain_sweeps(
                &multichain,
                &[&[0.0, 1.0]],
                None,
                SolverParallelism::serial(),
                1e-12,
                50
            ),
            Err(MarkovError::ConvergenceFailure { iterations: 50, .. })
        ));
    }
}
