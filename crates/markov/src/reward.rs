//! Long-run average (gain) and transient reward computations.

use crate::parallel::{mass_balanced_blocks, mass_capped_threads, sweep_scope};
use crate::{
    MarkovChain, MarkovError, SolverParallelism, StateClass, StationaryDistribution,
    StationaryMethod,
};
use sm_linalg::{solve_linear_system, DenseMatrix};
use std::sync::{Mutex, PoisonError, RwLock};

/// Long-run average reward (gain) of every state of a chain under a per-state
/// reward vector.
///
/// For a state inside a recurrent class `R` the gain is `Σ_{s∈R} π_R(s) r(s)`
/// where `π_R` is the stationary distribution of the class. For a transient
/// state the gain is the absorption-probability-weighted average of the gains
/// of the recurrent classes it can reach.
///
/// This is the exact quantity needed to evaluate a positional MDP strategy
/// under the mean-payoff objective, so `sm-mdp`'s policy iteration delegates
/// here.
///
/// # Errors
///
/// Returns [`MarkovError::RewardDimensionMismatch`] if the reward vector does
/// not match the number of states, and propagates solver failures.
///
/// # Example
///
/// ```
/// use sm_markov::{long_run_average_reward, MarkovChain};
///
/// # fn main() -> Result<(), sm_markov::MarkovError> {
/// let chain = MarkovChain::from_rows(vec![
///     vec![(0, 0.5), (1, 0.5)],
///     vec![(0, 0.5), (1, 0.5)],
/// ])?;
/// let gain = long_run_average_reward(&chain, &[1.0, 0.0])?;
/// assert!((gain[0] - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn long_run_average_reward(
    chain: &MarkovChain,
    rewards: &[f64],
) -> Result<Vec<f64>, MarkovError> {
    let n = chain.num_states();
    if rewards.len() != n {
        return Err(MarkovError::RewardDimensionMismatch {
            expected: n,
            actual: rewards.len(),
        });
    }
    let scc = chain.classify();
    let recurrent_classes = scc.recurrent_classes();
    let solver = StationaryDistribution::new(StationaryMethod::LinearSolve);

    // Gain of each recurrent class.
    let mut class_gain = Vec::with_capacity(recurrent_classes.len());
    for class in &recurrent_classes {
        let pi = solver.class_distribution(chain, class)?;
        let gain: f64 = class.iter().zip(&pi).map(|(&s, &p)| p * rewards[s]).sum();
        class_gain.push(gain);
    }

    let classes = scc.state_classes();
    let mut gain = vec![0.0; n];
    for (s, class) in classes.iter().enumerate() {
        if let StateClass::Recurrent { class } = class {
            gain[s] = class_gain[*class];
        }
    }

    // Transient states: gain(s) = Σ_t P(s,t) gain(t), i.e. solve
    // (I - P_TT) g_T = P_TR g_R over the transient block.
    let transient = scc.transient_states();
    if !transient.is_empty() {
        let m = transient.len();
        let mut local = vec![usize::MAX; n];
        for (i, &s) in transient.iter().enumerate() {
            local[s] = i;
        }
        let mut a = DenseMatrix::identity(m);
        let mut b = vec![0.0; m];
        for (i, &s) in transient.iter().enumerate() {
            let (succ, probs) = chain.successors(s);
            for (&t, &p) in succ.iter().zip(probs) {
                let t = t as usize;
                if local[t] == usize::MAX {
                    b[i] += p * gain[t];
                } else {
                    let j = local[t];
                    a.set(i, j, a.get(i, j) - p);
                }
            }
        }
        let g = solve_linear_system(&a, &b)?;
        for (i, &s) in transient.iter().enumerate() {
            gain[s] = g[i];
        }
    }
    Ok(gain)
}

/// Long-run average reward (gain) of a *unichain* Markov chain, computed with
/// sparse relative value iteration instead of the dense linear solves used by
/// [`long_run_average_reward`].
///
/// This is the method of choice for large chains (tens of thousands of
/// states), where assembling and factorising dense systems is prohibitive: a
/// sweep touches every transition once, and the span of the per-sweep
/// increments certifies the result to within `epsilon`.
///
/// # Errors
///
/// Returns [`MarkovError::RewardDimensionMismatch`] for a malformed reward
/// vector and [`MarkovError::ConvergenceFailure`] if the span has not dropped
/// below `epsilon` after `max_iterations` sweeps (e.g. because the chain is
/// not unichain and therefore has no single gain).
///
/// # Example
///
/// ```
/// use sm_markov::{iterative_gain, MarkovChain};
///
/// # fn main() -> Result<(), sm_markov::MarkovError> {
/// let chain = MarkovChain::from_rows(vec![
///     vec![(0, 0.5), (1, 0.5)],
///     vec![(0, 0.5), (1, 0.5)],
/// ])?;
/// let gain = iterative_gain(&chain, &[1.0, 0.0], 1e-10, 100_000)?;
/// assert!((gain - 0.5).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn iterative_gain(
    chain: &MarkovChain,
    rewards: &[f64],
    epsilon: f64,
    max_iterations: usize,
) -> Result<f64, MarkovError> {
    let gains = iterative_gains(chain, &[rewards], epsilon, max_iterations)?;
    Ok(gains[0])
}

/// [`iterative_gain`] over *several* reward vectors at once, sharing the
/// chain sweeps: the transition arrays (the memory-bound part of a sweep) are
/// walked once per iteration while one bias vector per reward function is
/// updated in the same pass. Evaluating the selfish-mining revenue ratio
/// `g_A / (g_A + g_H)` needs the gains of `r_A` and `r_H` under the *same*
/// chain, which this computes at nearly the cost of one.
///
/// Each reward's own span certifies its gain to within `epsilon`; the sweep
/// loop runs until every span has closed (gains whose span closed early stop
/// being refined — their certified interval is frozen).
///
/// # Errors
///
/// Same as [`iterative_gain`]; the dimension check applies to every reward
/// vector.
pub fn iterative_gains(
    chain: &MarkovChain,
    rewards: &[&[f64]],
    epsilon: f64,
    max_iterations: usize,
) -> Result<Vec<f64>, MarkovError> {
    iterative_gains_seeded(chain, rewards, epsilon, max_iterations, None).map(|(gains, _)| gains)
}

/// [`iterative_gains`] warm-started from previously converged bias vectors
/// (one per reward function), returning the final bias vectors for the next
/// call. Seeding with the bias of a *similar* chain — e.g. the one induced at
/// the previous point of a parameter sweep — cuts the sweep count; any finite
/// seed is valid (the per-sweep span sandwich certifies the gain regardless
/// of the starting bias) and seeds of the wrong shape are ignored.
///
/// # Errors
///
/// Same as [`iterative_gains`].
pub fn iterative_gains_seeded(
    chain: &MarkovChain,
    rewards: &[&[f64]],
    epsilon: f64,
    max_iterations: usize,
    seed: Option<&[Vec<f64>]>,
) -> Result<(Vec<f64>, Vec<Vec<f64>>), MarkovError> {
    iterative_gains_seeded_with(
        chain,
        rewards,
        epsilon,
        max_iterations,
        seed,
        SolverParallelism::serial(),
    )
}

/// The lazy (aperiodicity) transformation parameter of the fused gain sweeps:
/// `P' = (1 − τ)·I + τ·P` has the same stationary distribution and gain,
/// with guaranteed convergence of the span on periodic chains.
const GAIN_SWEEP_LAZINESS: f64 = 0.9;

/// [`iterative_gains_seeded`] with row-block parallel chain sweeps.
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
/// Same as [`iterative_gains`].
pub fn iterative_gains_seeded_with(
    chain: &MarkovChain,
    rewards: &[&[f64]],
    epsilon: f64,
    max_iterations: usize,
    seed: Option<&[Vec<f64>]>,
    parallelism: SolverParallelism,
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

/// The historical single-threaded sweep loop of [`iterative_gains_seeded`].
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
/// state, same fold order, bit-identical results (see
/// [`iterative_gains_seeded_with`]).
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

/// Total expected reward accumulated before absorption into a target set,
/// starting from each state. Rewards are collected in every non-target state
/// visited (including the start), targets collect nothing.
///
/// States that do not reach the target set with probability 1 get
/// `f64::INFINITY` (the accumulated reward need not converge there).
///
/// # Errors
///
/// Returns [`MarkovError::RewardDimensionMismatch`] on a malformed reward
/// vector, [`MarkovError::EmptyChain`] for an empty target set, and
/// propagates solver failures.
pub fn total_expected_reward_until_absorption(
    chain: &MarkovChain,
    rewards: &[f64],
    targets: &[usize],
) -> Result<Vec<f64>, MarkovError> {
    let n = chain.num_states();
    if rewards.len() != n {
        return Err(MarkovError::RewardDimensionMismatch {
            expected: n,
            actual: rewards.len(),
        });
    }
    let hitting = chain.hitting_analysis(targets)?;
    let mut is_target = vec![false; n];
    for &t in targets {
        is_target[t] = true;
    }
    let certain: Vec<usize> = (0..n)
        .filter(|&s| !is_target[s] && hitting.probability(s) > 1.0 - 1e-9)
        .collect();
    let mut local = vec![usize::MAX; n];
    for (i, &s) in certain.iter().enumerate() {
        local[s] = i;
    }
    let mut out = vec![f64::INFINITY; n];
    for &t in targets {
        out[t] = 0.0;
    }
    if certain.is_empty() {
        return Ok(out);
    }
    let m = certain.len();
    let mut a = DenseMatrix::identity(m);
    let mut b = vec![0.0; m];
    for (i, &s) in certain.iter().enumerate() {
        b[i] = rewards[s];
        let (succ, probs) = chain.successors(s);
        for (&t, &p) in succ.iter().zip(probs) {
            let t = t as usize;
            if is_target[t] {
                continue;
            }
            let j = local[t];
            if j != usize::MAX {
                a.set(i, j, a.get(i, j) - p);
            }
        }
    }
    let x = solve_linear_system(&a, &b)?;
    for (i, &s) in certain.iter().enumerate() {
        out[s] = x[i];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterative_gain_matches_exact_gain() {
        let chain =
            MarkovChain::from_rows(vec![vec![(0, 0.7), (1, 0.3)], vec![(0, 0.6), (1, 0.4)]])
                .unwrap();
        let rewards = [3.0, 0.0];
        let exact = long_run_average_reward(&chain, &rewards).unwrap()[0];
        let iterative = iterative_gain(&chain, &rewards, 1e-10, 200_000).unwrap();
        assert!((exact - iterative).abs() < 1e-8);
    }

    #[test]
    fn iterative_gain_handles_periodic_chains() {
        let chain = MarkovChain::from_rows(vec![vec![(1, 1.0)], vec![(0, 1.0)]]).unwrap();
        let gain = iterative_gain(&chain, &[1.0, 0.0], 1e-10, 200_000).unwrap();
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
        let fused = iterative_gains(&chain, &[&r1, &r2], 1e-10, 200_000).unwrap();
        let g1 = iterative_gain(&chain, &r1, 1e-10, 200_000).unwrap();
        let g2 = iterative_gain(&chain, &r2, 1e-10, 200_000).unwrap();
        assert!((fused[0] - g1).abs() < 1e-9);
        assert!((fused[1] - g2).abs() < 1e-9);
        assert!(iterative_gains(&chain, &[], 1e-10, 10).unwrap().is_empty());
        assert!(iterative_gains(&chain, &[&r1[..2]], 1e-10, 10).is_err());
    }

    #[test]
    fn seeded_gains_reuse_converged_bias() {
        let chain =
            MarkovChain::from_rows(vec![vec![(0, 0.7), (1, 0.3)], vec![(0, 0.6), (1, 0.4)]])
                .unwrap();
        let r = [3.0, 0.0];
        let (cold, bias) = iterative_gains_seeded(&chain, &[&r], 1e-10, 200_000, None).unwrap();
        let (warm, _) = iterative_gains_seeded(&chain, &[&r], 1e-10, 200_000, Some(&bias)).unwrap();
        assert!((cold[0] - warm[0]).abs() < 1e-9);
        // A mis-shaped seed is ignored rather than rejected.
        let bad_seed = vec![vec![0.0; 7]];
        let (ignored, _) =
            iterative_gains_seeded(&chain, &[&r], 1e-10, 200_000, Some(&bad_seed)).unwrap();
        assert!((ignored[0] - cold[0]).abs() < 1e-9);
    }

    #[test]
    fn iterative_gain_validates_inputs_and_budget() {
        let chain = MarkovChain::from_rows(vec![vec![(0, 1.0)]]).unwrap();
        assert!(matches!(
            iterative_gain(&chain, &[1.0, 2.0], 1e-8, 100),
            Err(MarkovError::RewardDimensionMismatch { .. })
        ));
        // A multichain has state-dependent gains, so the span never closes.
        let multichain = MarkovChain::from_rows(vec![vec![(0, 1.0)], vec![(1, 1.0)]]).unwrap();
        assert!(matches!(
            iterative_gain(&multichain, &[0.0, 1.0], 1e-12, 50),
            Err(MarkovError::ConvergenceFailure { .. })
        ));
    }

    #[test]
    fn gain_of_irreducible_chain_is_stationary_average() {
        let chain =
            MarkovChain::from_rows(vec![vec![(0, 0.7), (1, 0.3)], vec![(0, 0.6), (1, 0.4)]])
                .unwrap();
        // Stationary distribution is (2/3, 1/3).
        let gain = long_run_average_reward(&chain, &[3.0, 0.0]).unwrap();
        assert!((gain[0] - 2.0).abs() < 1e-9);
        assert!((gain[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gain_distinguishes_multiple_recurrent_classes() {
        // 0 splits evenly to two absorbing states with rewards 0 and 10.
        let chain = MarkovChain::from_rows(vec![
            vec![(1, 0.5), (2, 0.5)],
            vec![(1, 1.0)],
            vec![(2, 1.0)],
        ])
        .unwrap();
        let gain = long_run_average_reward(&chain, &[0.0, 0.0, 10.0]).unwrap();
        assert!((gain[1] - 0.0).abs() < 1e-12);
        assert!((gain[2] - 10.0).abs() < 1e-12);
        assert!((gain[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_wrong_reward_length() {
        let chain = MarkovChain::from_rows(vec![vec![(0, 1.0)]]).unwrap();
        assert!(matches!(
            long_run_average_reward(&chain, &[1.0, 2.0]),
            Err(MarkovError::RewardDimensionMismatch { .. })
        ));
    }

    #[test]
    fn absorption_reward_counts_visits() {
        // 0 -> 1 -> 2(absorbing), reward 1 per non-target state visited.
        let chain =
            MarkovChain::from_rows(vec![vec![(1, 1.0)], vec![(2, 1.0)], vec![(2, 1.0)]]).unwrap();
        let total = total_expected_reward_until_absorption(&chain, &[1.0, 1.0, 0.0], &[2]).unwrap();
        assert!((total[0] - 2.0).abs() < 1e-10);
        assert!((total[1] - 1.0).abs() < 1e-10);
        assert_eq!(total[2], 0.0);
    }

    #[test]
    fn absorption_reward_infinite_when_absorption_uncertain() {
        // State 0 can fall into absorbing state 1 (never reaching target 2).
        let chain = MarkovChain::from_rows(vec![
            vec![(1, 0.5), (2, 0.5)],
            vec![(1, 1.0)],
            vec![(2, 1.0)],
        ])
        .unwrap();
        let total = total_expected_reward_until_absorption(&chain, &[1.0, 1.0, 0.0], &[2]).unwrap();
        assert!(total[0].is_infinite());
    }

    #[test]
    fn geometric_absorption_reward() {
        // Collect reward 2 per step, absorb with probability 1/4 each step:
        // expected total reward 2 * 4 = 8.
        let chain =
            MarkovChain::from_rows(vec![vec![(0, 0.75), (1, 0.25)], vec![(1, 1.0)]]).unwrap();
        let total = total_expected_reward_until_absorption(&chain, &[2.0, 0.0], &[1]).unwrap();
        assert!((total[0] - 8.0).abs() < 1e-9);
    }
}
