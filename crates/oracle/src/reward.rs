//! Exact long-run average (gain) of a Markov chain under a reward vector.

use crate::stationary::class_distribution;
use crate::{solve_linear_system, ChainAnalysis, DenseMatrix, OracleError, StateClass};
use sm_mdp::{MarkovChain, MdpError};

/// Long-run average reward (gain) of every state of a chain under a per-state
/// reward vector.
///
/// For a state inside a recurrent class `R` the gain is `Σ_{s∈R} π_R(s) r(s)`
/// where `π_R` is the stationary distribution of the class. For a transient
/// state the gain is the absorption-probability-weighted average of the gains
/// of the recurrent classes it can reach.
///
/// This is the exact quantity needed to evaluate a positional MDP strategy
/// under the mean-payoff objective: policy iteration's evaluation step
/// delegates here, and the tests hold the production evaluator
/// (`sm_mdp::iterative_gains`) against it.
///
/// # Errors
///
/// Returns [`MdpError::RewardShapeMismatch`] if the reward vector does not
/// match the number of states, and propagates solver failures.
///
/// # Example
///
/// ```
/// use sm_oracle::{chain_from_rows, long_run_average_reward};
///
/// # fn main() -> Result<(), sm_oracle::OracleError> {
/// let chain = chain_from_rows(&[
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
) -> Result<Vec<f64>, OracleError> {
    let n = chain.num_states();
    if rewards.len() != n {
        return Err(MdpError::RewardShapeMismatch {
            detail: format!(
                "reward vector has {} entries, chain has {n} states",
                rewards.len()
            ),
        }
        .into());
    }
    let scc = chain.classify();
    let recurrent_classes = scc.recurrent_classes();

    // Gain of each recurrent class.
    let mut class_gain = Vec::with_capacity(recurrent_classes.len());
    for class in &recurrent_classes {
        let pi = class_distribution(chain, class)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_from_rows;
    use sm_mdp::{iterative_gains, SolverParallelism};

    #[test]
    fn iterative_gain_matches_exact_gain() {
        let chain = chain_from_rows(&[vec![(0, 0.7), (1, 0.3)], vec![(0, 0.6), (1, 0.4)]]).unwrap();
        let rewards = [3.0, 0.0];
        let exact = long_run_average_reward(&chain, &rewards).unwrap()[0];
        let (iterative, _) =
            iterative_gains(&chain, &[&rewards], None, SolverParallelism::serial()).unwrap();
        assert!((exact - iterative[0]).abs() < 1e-8);
    }

    #[test]
    fn gain_of_irreducible_chain_is_stationary_average() {
        let chain = chain_from_rows(&[vec![(0, 0.7), (1, 0.3)], vec![(0, 0.6), (1, 0.4)]]).unwrap();
        // Stationary distribution is (2/3, 1/3).
        let gain = long_run_average_reward(&chain, &[3.0, 0.0]).unwrap();
        assert!((gain[0] - 2.0).abs() < 1e-9);
        assert!((gain[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gain_distinguishes_multiple_recurrent_classes() {
        // 0 splits evenly to two absorbing states with rewards 0 and 10.
        let chain =
            chain_from_rows(&[vec![(1, 0.5), (2, 0.5)], vec![(1, 1.0)], vec![(2, 1.0)]]).unwrap();
        let gain = long_run_average_reward(&chain, &[0.0, 0.0, 10.0]).unwrap();
        assert!((gain[1] - 0.0).abs() < 1e-12);
        assert!((gain[2] - 10.0).abs() < 1e-12);
        assert!((gain[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_wrong_reward_length() {
        let chain = chain_from_rows(&[vec![(0, 1.0)]]).unwrap();
        assert!(matches!(
            long_run_average_reward(&chain, &[1.0, 2.0]),
            Err(OracleError::Mdp(MdpError::RewardShapeMismatch { .. }))
        ));
    }
}
