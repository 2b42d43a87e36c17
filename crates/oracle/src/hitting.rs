//! Hitting probabilities and expected hitting times.
//!
//! Transient analysis of a chain: for example the probability that a private
//! fork ever catches up with the public chain, and how long that takes.

use crate::{solve_linear_system, DenseMatrix, OracleError};
use sm_mdp::{MarkovChain, MdpError};

/// Hitting analysis of a target set `T` in a Markov chain: for every state the
/// probability of ever reaching `T` and, where that probability is 1, the
/// expected number of steps to do so.
#[derive(Debug, Clone)]
pub struct HittingAnalysis {
    probabilities: Vec<f64>,
    expected_times: Vec<f64>,
    targets: Vec<usize>,
}

impl HittingAnalysis {
    /// Computes the analysis for the given chain and target states.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidParameter`] if `targets` is empty,
    /// [`MdpError::InvalidState`] if a target does not exist, and propagates
    /// linear-solver failures.
    pub fn new(chain: &MarkovChain, targets: &[usize]) -> Result<Self, OracleError> {
        let n = chain.num_states();
        if targets.is_empty() {
            return Err(MdpError::InvalidParameter {
                name: "targets",
                constraint: "must name at least one state",
            }
            .into());
        }
        let mut is_target = vec![false; n];
        for &t in targets {
            if t >= n {
                return Err(MdpError::InvalidState {
                    state: t,
                    num_states: n,
                }
                .into());
            }
            is_target[t] = true;
        }
        // Hitting probabilities are the *minimal* non-negative solution of
        // h = P h with h = 1 on the target set. Solving the linear system
        // naively over all non-target states is singular whenever some state
        // cannot reach the target at all (e.g. an absorbing losing state), so
        // we first compute backward reachability: states that cannot reach the
        // target get probability 0, and the linear system is restricted to the
        // states that can.
        let can_reach = backward_reachable(chain, &is_target);
        let solvable: Vec<usize> = (0..n).filter(|&s| !is_target[s] && can_reach[s]).collect();
        let mut local = vec![usize::MAX; n];
        for (i, &s) in solvable.iter().enumerate() {
            local[s] = i;
        }
        let m = solvable.len();
        let probabilities = {
            let mut full = vec![0.0; n];
            for &t in targets {
                full[t] = 1.0;
            }
            if m > 0 {
                let mut a = DenseMatrix::identity(m);
                let mut b = vec![0.0; m];
                for (i, &s) in solvable.iter().enumerate() {
                    let (succ, probs) = chain.successors(s);
                    for (&t, &p) in succ.iter().zip(probs) {
                        if is_target[t as usize] {
                            b[i] += p;
                        } else if local[t as usize] != usize::MAX {
                            let j = local[t as usize];
                            a.set(i, j, a.get(i, j) - p);
                        }
                        // Successors that cannot reach the target contribute 0.
                    }
                }
                let h = solve_linear_system(&a, &b)?;
                for (i, &s) in solvable.iter().enumerate() {
                    full[s] = h[i].clamp(0.0, 1.0);
                }
            }
            full
        };

        // Expected hitting times: defined (finite) only where the hitting
        // probability is 1. Solve k = 1 + P_NT k over states with h = 1;
        // states with h < 1 get infinity.
        let certain: Vec<usize> = (0..n)
            .filter(|&s| !is_target[s] && probabilities[s] > 1.0 - 1e-9)
            .collect();
        let mut certain_local = vec![usize::MAX; n];
        for (i, &s) in certain.iter().enumerate() {
            certain_local[s] = i;
        }
        let mut expected_times = vec![f64::INFINITY; n];
        for &t in targets {
            expected_times[t] = 0.0;
        }
        if !certain.is_empty() {
            let mc = certain.len();
            let mut a = DenseMatrix::identity(mc);
            let b = vec![1.0; mc];
            for (i, &s) in certain.iter().enumerate() {
                let (succ, probs) = chain.successors(s);
                for (&t, &p) in succ.iter().zip(probs) {
                    if is_target[t as usize] {
                        continue;
                    }
                    let j = certain_local[t as usize];
                    // A successor with hitting probability < 1 would make the
                    // expectation infinite; h = 1 here guarantees all mass
                    // goes to certain states or targets.
                    if j != usize::MAX {
                        a.set(i, j, a.get(i, j) - p);
                    }
                }
            }
            if let Ok(k) = solve_linear_system(&a, &b) {
                for (i, &s) in certain.iter().enumerate() {
                    expected_times[s] = k[i].max(0.0);
                }
            }
        }

        Ok(HittingAnalysis {
            probabilities,
            expected_times,
            targets: targets.to_vec(),
        })
    }

    /// Probability of ever reaching the target set from `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn probability(&self, state: usize) -> f64 {
        self.probabilities[state]
    }

    /// Expected number of steps to reach the target set from `state`
    /// (`f64::INFINITY` when the hitting probability is below 1).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn expected_time(&self, state: usize) -> f64 {
        self.expected_times[state]
    }

    /// All hitting probabilities, indexed by state.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// All expected hitting times, indexed by state.
    pub fn expected_times(&self) -> &[f64] {
        &self.expected_times
    }

    /// The target set this analysis was computed for.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }
}

/// Set of states from which the target set is reachable (including targets),
/// computed by a reverse breadth-first search over the transition graph.
fn backward_reachable(chain: &MarkovChain, is_target: &[bool]) -> Vec<bool> {
    let n = chain.num_states();
    // Build the reverse adjacency once.
    let mut predecessors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for s in 0..n {
        let (succ, probs) = chain.successors(s);
        for (&t, &p) in succ.iter().zip(probs) {
            if p > 0.0 {
                predecessors[t as usize].push(s);
            }
        }
    }
    let mut reachable = vec![false; n];
    let mut queue: Vec<usize> = (0..n).filter(|&s| is_target[s]).collect();
    for &t in &queue {
        reachable[t] = true;
    }
    while let Some(t) = queue.pop() {
        for &p in &predecessors[t] {
            if !reachable[p] {
                reachable[p] = true;
                queue.push(p);
            }
        }
    }
    reachable
}

#[cfg(test)]
mod tests {
    use crate::{chain_from_rows, ChainAnalysis};

    #[test]
    fn gambler_ruin_probabilities() {
        // States 0..=4, absorbing at 0 and 4, fair coin in between.
        // Probability of hitting 4 from i is i/4.
        let chain = chain_from_rows(&[
            vec![(0, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(1, 0.5), (3, 0.5)],
            vec![(2, 0.5), (4, 0.5)],
            vec![(4, 1.0)],
        ])
        .unwrap();
        let hit = chain.hitting_analysis(&[4]).unwrap();
        for i in 0..=4 {
            assert!(
                (hit.probability(i) - i as f64 / 4.0).abs() < 1e-10,
                "state {i}"
            );
        }
        // From state 0 the target is unreachable: infinite expected time.
        assert!(hit.expected_time(0).is_infinite());
        assert_eq!(hit.expected_time(4), 0.0);
    }

    #[test]
    fn expected_time_on_simple_walk() {
        // 0 -> 1 -> 2 deterministic; expected time from 0 to reach 2 is 2.
        let chain = chain_from_rows(&[vec![(1, 1.0)], vec![(2, 1.0)], vec![(2, 1.0)]]).unwrap();
        let hit = chain.hitting_analysis(&[2]).unwrap();
        assert!((hit.expected_time(0) - 2.0).abs() < 1e-10);
        assert!((hit.expected_time(1) - 1.0).abs() < 1e-10);
        assert_eq!(hit.probability(0), 1.0);
    }

    #[test]
    fn geometric_expected_time() {
        // Stay with probability 0.75, move to the target with 0.25:
        // expected hitting time 4.
        let chain = chain_from_rows(&[vec![(0, 0.75), (1, 0.25)], vec![(1, 1.0)]]).unwrap();
        let hit = chain.hitting_analysis(&[1]).unwrap();
        assert!((hit.expected_time(0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_or_invalid_targets() {
        let chain = chain_from_rows(&[vec![(0, 1.0)]]).unwrap();
        assert!(chain.hitting_analysis(&[]).is_err());
        assert!(chain.hitting_analysis(&[5]).is_err());
    }

    #[test]
    fn all_states_targets_yields_trivial_analysis() {
        let chain = chain_from_rows(&[vec![(1, 1.0)], vec![(0, 1.0)]]).unwrap();
        let hit = chain.hitting_analysis(&[0, 1]).unwrap();
        assert_eq!(hit.probabilities(), &[1.0, 1.0]);
        assert_eq!(hit.expected_times(), &[0.0, 0.0]);
        assert_eq!(hit.targets(), &[0, 1]);
    }
}
