//! Long-run average (gain) evaluation of a unichain by fused sparse sweeps.

use crate::parallel::{
    lock, mass_balanced_blocks, mass_capped_threads, read, sweep_scope, write, SolverParallelism,
};
use crate::{MarkovChain, MdpError};
use std::ops::Range;
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
/// transition mass; each sweep fans the blocks over a scoped pool, every
/// block writing a disjoint slice of the next iterate, and the per-reward
/// span statistics are reduced per block and folded in block order. Each
/// state runs the same row kernel whatever the partition, so gains, bias
/// vectors and sweep counts are **bit-identical for any thread count** —
/// [`SolverParallelism`] only trades wall-clock time for cores. A serial
/// evaluation is the one-block case of the same loop, run inline; a chain
/// gets at most one block per 2,048 transitions, so small chains run as one
/// block regardless of the knob.
///
/// # Errors
///
/// Returns [`MdpError::RewardShapeMismatch`] if a reward vector does
/// not match the number of states and [`MdpError::ConvergenceFailure`] if
/// some span is still open after 5,000,000 sweeps (e.g. because the chain is
/// not unichain and therefore has no single gain).
///
/// # Example
///
/// ```
/// use sm_mdp::{iterative_gains, CsrMdpBuilder, PositionalStrategy, SolverParallelism};
///
/// # fn main() -> Result<(), sm_mdp::MdpError> {
/// // A one-action MDP is a Markov chain: here both states move to either
/// // state with probability 1/2.
/// let mut builder = CsrMdpBuilder::new();
/// for _ in 0..2 {
///     builder.begin_state();
///     builder.add_action(&[(0, 0.5), (1, 0.5)])?;
/// }
/// let mdp = builder.finish()?;
/// let chain = mdp.induced_chain(&PositionalStrategy::uniform_first_action(2))?;
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
) -> Result<(Vec<f64>, Vec<Vec<f64>>), MdpError> {
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
) -> Result<(Vec<f64>, Vec<Vec<f64>>), MdpError> {
    let n = chain.num_states();
    for reward in rewards {
        if reward.len() != n {
            return Err(MdpError::RewardShapeMismatch {
                detail: format!(
                    "reward vector has {} entries, chain has {n} states",
                    reward.len()
                ),
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
    let threads = mass_capped_threads(parallelism.thread_count(), chain.num_transitions());
    let blocks = if threads > 1 {
        let mut cumulative = Vec::with_capacity(n + 1);
        cumulative.push(0usize);
        for s in 0..n {
            cumulative.push(cumulative[s] + chain.successors(s).0.len());
        }
        mass_balanced_blocks(&cumulative, threads)
    } else {
        // One block, the serial evaluation: no cumulative-mass pass.
        std::iter::once(0..n).collect()
    };
    let iterate = RwLock::new(Iterate {
        h,
        open: vec![true; k],
    });
    // Per-block scratch: one next-iterate slice and one span statistic per
    // reward function, locked only by its own block's worker (and by the
    // driver between rounds).
    let chunks: Vec<Mutex<GainChunk>> = blocks
        .iter()
        .map(|range| {
            Mutex::new(GainChunk {
                next: vec![vec![0.0; range.len()]; k],
                span: vec![(f64::INFINITY, f64::NEG_INFINITY); k],
            })
        })
        .collect();

    // One round = one fused sweep over all open reward functions of every
    // block (block 0 inline, the others on the pool; a serial evaluation is
    // the one-block case and spawns nothing).
    let run_block = |block: usize, _: &()| {
        let iterate = read(&iterate);
        let mut chunk = lock(&chunks[block]);
        let GainChunk { next, span } = &mut *chunk;
        gain_rows(chain, rewards, &iterate, blocks[block].clone(), next, span);
    };

    let gains = sweep_scope(blocks.len() - 1, run_block, |pool| {
        // Per-solve fold buffers, reused by every sweep.
        let mut gain = vec![f64::NAN; k];
        let mut offsets = vec![0.0; k];
        let mut span = vec![(f64::INFINITY, f64::NEG_INFINITY); k];
        for _ in 0..max_iterations {
            pool.round(());
            let mut iterate = write(&iterate);
            let Iterate { h, open } = &mut *iterate;
            // Renormalise each open bias so state 0 stays at 0, folding the
            // span statistics in block order; block 0, which holds state 0,
            // comes first and sets the offsets.
            span.fill((f64::INFINITY, f64::NEG_INFINITY));
            for (range, chunk) in blocks.iter().zip(&chunks) {
                let chunk = lock(chunk);
                for r in 0..k {
                    if !open[r] {
                        continue;
                    }
                    if range.start == 0 {
                        offsets[r] = chunk.next[r][0];
                    }
                    span[r].0 = span[r].0.min(chunk.span[r].0);
                    span[r].1 = span[r].1.max(chunk.span[r].1);
                    for (h_s, &value) in h[r][range.clone()].iter_mut().zip(&chunk.next[r]) {
                        *h_s = value - offsets[r];
                    }
                }
            }
            let mut any_open = false;
            for r in 0..k {
                if !open[r] {
                    continue;
                }
                let (min_delta, max_delta) = span[r];
                if max_delta - min_delta < epsilon {
                    gain[r] = 0.5 * (min_delta + max_delta);
                    open[r] = false;
                } else {
                    any_open = true;
                }
            }
            if !any_open {
                return Ok(gain);
            }
        }
        Err(MdpError::ConvergenceFailure {
            method: "iterative gain",
            iterations: max_iterations,
        })
    })?;
    let iterate = iterate.into_inner().unwrap_or_else(PoisonError::into_inner);
    Ok((gains, iterate.h))
}

/// The shared state of the gain sweeps: one bias vector per reward function
/// and the mask of rewards whose span is still open (closed ones are frozen).
struct Iterate {
    h: Vec<Vec<f64>>,
    open: Vec<bool>,
}

/// One row block's scratch: its slice of the next iterate and its span
/// statistics `(min Δ, max Δ)`, one of each per reward function.
struct GainChunk {
    next: Vec<Vec<f64>>,
    span: Vec<(f64, f64)>,
}

/// One fused evaluation sweep of the states `rows` for every open reward
/// function: writes the new values of reward `r` to `next[r]` (indexed from
/// `rows.start`) and that block's `(min Δ, max Δ)` to `span[r]`.
fn gain_rows(
    chain: &MarkovChain,
    rewards: &[&[f64]],
    iterate: &Iterate,
    rows: Range<usize>,
    next: &mut [Vec<f64>],
    span: &mut [(f64, f64)],
) {
    let Iterate { h, open } = iterate;
    let tau = GAIN_SWEEP_LAZINESS;
    span.fill((f64::INFINITY, f64::NEG_INFINITY));
    for (i, s) in rows.enumerate() {
        let (targets, probs) = chain.successors(s);
        for r in 0..rewards.len() {
            if !open[r] {
                continue;
            }
            let h_r = &h[r];
            let mut value = rewards[r][s] + (1.0 - tau) * h_r[s];
            for (&t, &p) in targets.iter().zip(probs) {
                value += tau * p * h_r[t as usize];
            }
            let delta = value - h_r[s];
            span[r].0 = span[r].0.min(delta);
            span[r].1 = span[r].1.max(delta);
            next[r][i] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::tests::chain_from_rows;

    fn serial_gains(chain: &MarkovChain, rewards: &[&[f64]]) -> Vec<f64> {
        iterative_gains(chain, rewards, None, SolverParallelism::serial())
            .unwrap()
            .0
    }

    #[test]
    fn iterative_gain_handles_periodic_chains() {
        let chain = chain_from_rows(&[vec![(1, 1.0)], vec![(0, 1.0)]]);
        let gain = serial_gains(&chain, &[&[1.0, 0.0]])[0];
        assert!((gain - 0.5).abs() < 1e-8);
    }

    #[test]
    fn fused_gains_match_separate_evaluations() {
        let chain = chain_from_rows(&[
            vec![(0, 0.2), (1, 0.5), (2, 0.3)],
            vec![(0, 0.6), (2, 0.4)],
            vec![(1, 1.0)],
        ]);
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
        let chain = chain_from_rows(&[vec![(0, 0.7), (1, 0.3)], vec![(0, 0.6), (1, 0.4)]]);
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
        let chain = chain_from_rows(&[vec![(0, 1.0)]]);
        assert!(matches!(
            iterative_gains(&chain, &[&[1.0, 2.0]], None, SolverParallelism::serial()),
            Err(MdpError::RewardShapeMismatch { .. })
        ));
        // A multichain has state-dependent gains, so the span never closes.
        let multichain = chain_from_rows(&[vec![(0, 1.0)], vec![(1, 1.0)]]);
        assert!(matches!(
            gain_sweeps(
                &multichain,
                &[&[0.0, 1.0]],
                None,
                SolverParallelism::serial(),
                1e-12,
                50
            ),
            Err(MdpError::ConvergenceFailure { iterations: 50, .. })
        ));
    }
}
