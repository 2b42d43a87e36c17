//! Stationary distributions of finite Markov chains, by direct linear solve.

use crate::{solve_linear_system, ChainAnalysis, DenseMatrix, OracleError};
use sm_mdp::{MarkovChain, MdpError};

/// Stationary distribution of a unichain (single recurrent class) over the
/// *full* state space: transient states get probability 0. Periodic classes
/// need no special treatment — the direct solve of `π P = π`, `Σ π = 1` is
/// exact for them too.
///
/// # Errors
///
/// Returns [`OracleError::NotIrreducible`] if the chain has more than one
/// recurrent class, and propagates solver failures.
pub(crate) fn unichain_distribution(chain: &MarkovChain) -> Result<Vec<f64>, OracleError> {
    let scc = chain.classify();
    let recurrent = scc.recurrent_classes();
    if recurrent.len() != 1 {
        return Err(OracleError::NotIrreducible);
    }
    let class = recurrent[0];
    let class_pi = class_distribution(chain, class)?;
    let mut pi = vec![0.0; chain.num_states()];
    for (&state, &p) in class.iter().zip(&class_pi) {
        pi[state] = p;
    }
    Ok(pi)
}

/// Stationary distribution *within* a recurrent class, returned in the order
/// of `class_states`.
///
/// The caller is responsible for passing the states of a closed
/// communicating class (as produced by
/// [`crate::StronglyConnectedComponents::recurrent_classes`]); transitions
/// leaving the set are treated as an error.
///
/// # Errors
///
/// Returns [`MdpError::InvalidParameter`] if the class is empty or a
/// transition leaves it, and propagates linear-algebra errors.
pub(crate) fn class_distribution(
    chain: &MarkovChain,
    class_states: &[usize],
) -> Result<Vec<f64>, OracleError> {
    let not_a_class = MdpError::InvalidParameter {
        name: "class_states",
        constraint: "must be a non-empty closed class",
    };
    let m = class_states.len();
    if m == 0 {
        return Err(not_a_class.into());
    }
    // Local index of every class state.
    let mut local = vec![usize::MAX; chain.num_states()];
    for (i, &s) in class_states.iter().enumerate() {
        local[s] = i;
    }
    // Local transition rows, verifying closedness.
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
    for &s in class_states {
        let (targets, probs) = chain.successors(s);
        let mut row = Vec::with_capacity(targets.len());
        for (&t, &p) in targets.iter().zip(probs) {
            if local[t as usize] == usize::MAX {
                return Err(not_a_class.into());
            }
            row.push((local[t as usize], p));
        }
        rows.push(row);
    }
    solve_direct(&rows)
}

/// Direct solve: unknowns π, equations `π P = π` with the last equation
/// replaced by the normalisation `Σ π = 1`.
fn solve_direct(rows: &[Vec<(usize, f64)>]) -> Result<Vec<f64>, OracleError> {
    let m = rows.len();
    // Build (P^T - I) as a dense matrix.
    let mut a = DenseMatrix::zeros(m, m);
    for (from, row) in rows.iter().enumerate() {
        for &(to, p) in row {
            a.set(to, from, a.get(to, from) + p);
        }
    }
    for i in 0..m {
        a.set(i, i, a.get(i, i) - 1.0);
    }
    // Replace the last row with the normalisation constraint.
    for j in 0..m {
        a.set(m - 1, j, 1.0);
    }
    let mut b = vec![0.0; m];
    b[m - 1] = 1.0;
    let mut pi = solve_linear_system(&a, &b)?;
    // Numerical clean-up: clamp tiny negatives and renormalise.
    for p in pi.iter_mut() {
        if *p < 0.0 {
            *p = 0.0;
        }
    }
    let sum: f64 = pi.iter().sum();
    if sum <= 0.0 {
        return Err(MdpError::ConvergenceFailure {
            method: "stationary linear solve",
            iterations: 1,
        }
        .into());
    }
    for p in pi.iter_mut() {
        *p /= sum;
    }
    Ok(pi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_from_rows;

    fn two_state() -> MarkovChain {
        chain_from_rows(&[vec![(0, 0.7), (1, 0.3)], vec![(0, 0.6), (1, 0.4)]]).unwrap()
    }

    #[test]
    fn linear_solve_matches_hand_computation() {
        let pi = unichain_distribution(&two_state()).unwrap();
        assert!((pi[0] - 2.0 / 3.0).abs() < 1e-10);
        assert!((pi[1] - 1.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn periodic_chain_has_uniform_stationary_distribution() {
        // A deterministic 2-cycle has period 2 (power iteration on it would
        // oscillate); the direct solve returns the uniform distribution.
        let chain = chain_from_rows(&[vec![(1, 1.0)], vec![(0, 1.0)]]).unwrap();
        let pi = unichain_distribution(&chain).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-8);
        assert!((pi[1] - 0.5).abs() < 1e-8);
    }

    #[test]
    fn transient_states_receive_zero_probability() {
        let chain = chain_from_rows(&[
            vec![(1, 0.5), (2, 0.5)],
            vec![(1, 0.2), (2, 0.8)],
            vec![(1, 0.7), (2, 0.3)],
        ])
        .unwrap();
        let pi = unichain_distribution(&chain).unwrap();
        assert_eq!(pi[0], 0.0);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn multichain_is_rejected() {
        let chain =
            chain_from_rows(&[vec![(1, 0.5), (2, 0.5)], vec![(1, 1.0)], vec![(2, 1.0)]]).unwrap();
        let err = unichain_distribution(&chain).unwrap_err();
        assert_eq!(err, OracleError::NotIrreducible);
    }

    #[test]
    fn class_distribution_rejects_open_sets() {
        let chain = chain_from_rows(&[vec![(1, 1.0)], vec![(1, 1.0)]]).unwrap();
        // {0} is not closed: it leaks to 1.
        let err = class_distribution(&chain, &[0]).unwrap_err();
        assert!(matches!(
            err,
            OracleError::Mdp(MdpError::InvalidParameter {
                name: "class_states",
                ..
            })
        ));
    }

    #[test]
    fn stationary_is_fixed_point_of_step() {
        let chain = chain_from_rows(&[
            vec![(0, 0.2), (1, 0.5), (2, 0.3)],
            vec![(0, 0.4), (1, 0.1), (2, 0.5)],
            vec![(0, 0.3), (1, 0.3), (2, 0.4)],
        ])
        .unwrap();
        let pi = chain.stationary_distribution().unwrap();
        // One step of the distribution evolution, `π' = π · P`.
        let mut stepped = vec![0.0; pi.len()];
        for (s, &mass) in pi.iter().enumerate() {
            let (targets, probs) = chain.successors(s);
            for (&t, &p) in targets.iter().zip(probs) {
                stepped[t as usize] += mass * p;
            }
        }
        for (a, b) in pi.iter().zip(&stepped) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
