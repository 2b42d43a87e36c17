//! The [`MarkovChain`] a positional strategy induces on an [`crate::Mdp`].

use crate::{MdpError, PositionalStrategy, PROBABILITY_TOLERANCE};

/// A finite, discrete-time Markov chain: the chain a positional strategy
/// induces on an MDP (built only by [`crate::Mdp::induced_chain`]), stored
/// as compact CSR arrays copied out of the MDP's arena.
///
/// Rows are validated on construction: the CSR arrays must be well formed,
/// every successor in range and strictly increasing within its row, every
/// probability finite and non-negative, and every row must sum to 1 within
/// [`PROBABILITY_TOLERANCE`].
///
/// # Example
///
/// ```
/// use sm_mdp::{CsrMdpBuilder, PositionalStrategy};
///
/// # fn main() -> Result<(), sm_mdp::MdpError> {
/// let mut builder = CsrMdpBuilder::new();
/// builder.begin_state();
/// builder.add_action(&[(1, 1.0)])?;
/// builder.begin_state();
/// builder.add_action(&[(1, 0.5), (0, 0.5)])?;
/// let mdp = builder.finish()?;
/// let chain = mdp.induced_chain(&PositionalStrategy::uniform_first_action(2))?;
/// assert_eq!(chain.num_states(), 2);
/// assert_eq!(chain.successors(1), (&[0u32, 1][..], &[0.5, 0.5][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    /// State → transition range; length `num_states + 1`.
    row_ptr: Vec<u32>,
    /// Successor state per transition, strictly increasing within a row.
    col: Vec<u32>,
    /// Transition probability, aligned with `col`.
    prob: Vec<f64>,
}

impl MarkovChain {
    /// Assembles a chain from compact CSR arrays in one validating pass:
    /// `row_ptr` must start at 0, be non-decreasing and end at the number of
    /// stored entries; successors must be in range and strictly increasing
    /// within each row; probabilities must be finite and non-negative, and
    /// each row must sum to 1. Row `state` was copied from the action
    /// `strategy` chooses there, which a distribution error reports.
    ///
    /// # Errors
    ///
    /// [`MdpError::InvariantViolation`] for malformed CSR arrays or unsorted
    /// successors, [`MdpError::EmptyModel`] for a chain without states,
    /// [`MdpError::InvalidState`] for an out-of-range successor and
    /// [`MdpError::InvalidDistribution`] for a row that is not a probability
    /// distribution.
    pub(crate) fn from_csr_parts(
        row_ptr: Vec<u32>,
        col: Vec<u32>,
        prob: Vec<f64>,
        strategy: &PositionalStrategy,
    ) -> Result<Self, MdpError> {
        if row_ptr.first() != Some(&0) {
            return Err(MdpError::InvariantViolation {
                detail: "chain row_ptr must be non-empty and start at 0".to_string(),
            });
        }
        let n = row_ptr.len() - 1;
        if col.len() != prob.len() || row_ptr[n] as usize != col.len() {
            return Err(MdpError::InvariantViolation {
                detail: "chain entry count differs from the end of row_ptr".to_string(),
            });
        }
        if n == 0 {
            return Err(MdpError::EmptyModel);
        }
        let invalid_distribution = |state: usize, sum: f64| MdpError::InvalidDistribution {
            state,
            action: strategy.action(state),
            sum,
        };
        for state in 0..n {
            let (start, end) = (row_ptr[state] as usize, row_ptr[state + 1] as usize);
            if start > end || end > col.len() {
                return Err(MdpError::InvariantViolation {
                    detail: "chain row_ptr must be non-decreasing".to_string(),
                });
            }
            for k in start..end {
                if col[k] as usize >= n {
                    return Err(MdpError::InvalidState {
                        state: col[k] as usize,
                        num_states: n,
                    });
                }
                if k > start && col[k] <= col[k - 1] {
                    return Err(MdpError::InvariantViolation {
                        detail: "unsorted or duplicate successor within a chain row".to_string(),
                    });
                }
                if !prob[k].is_finite() || prob[k] < 0.0 {
                    return Err(invalid_distribution(state, prob[k]));
                }
            }
            let sum: f64 = prob[start..end].iter().sum();
            if (sum - 1.0).abs() > PROBABILITY_TOLERANCE {
                return Err(invalid_distribution(state, sum));
            }
        }
        Ok(MarkovChain { row_ptr, col, prob })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored transitions.
    pub fn num_transitions(&self) -> usize {
        self.col.len()
    }

    /// Successors of a state as parallel slices of (compact `u32`) targets
    /// and probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn successors(&self, state: usize) -> (&[u32], &[f64]) {
        let range = self.row_ptr[state] as usize..self.row_ptr[state + 1] as usize;
        (&self.col[range.clone()], &self.prob[range])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::CsrMdpBuilder;

    /// The chain with the given per-state rows, built the one way chains are
    /// built: as a one-action MDP and the chain of its only strategy.
    pub(crate) fn chain_from_rows(rows: &[Vec<(usize, f64)>]) -> MarkovChain {
        let mut builder = CsrMdpBuilder::new();
        for row in rows {
            builder.begin_state();
            builder.add_action(row).unwrap();
        }
        let strategy = PositionalStrategy::uniform_first_action(rows.len());
        builder.finish().unwrap().induced_chain(&strategy).unwrap()
    }

    /// A chain from raw CSR arrays, its rows copied from action 2 of every
    /// state.
    fn parts(row_ptr: Vec<u32>, col: Vec<u32>, prob: Vec<f64>) -> Result<MarkovChain, MdpError> {
        let strategy = PositionalStrategy::new(vec![2; row_ptr.len().saturating_sub(1)]);
        MarkovChain::from_csr_parts(row_ptr, col, prob, &strategy)
    }

    #[test]
    fn validates_row_sums() {
        assert!(matches!(
            parts(vec![0, 1], vec![0], vec![0.5]),
            Err(MdpError::InvalidDistribution {
                state: 0,
                action: 2,
                ..
            })
        ));
        // A row without successors sums to 0.
        assert!(matches!(
            parts(vec![0, 1, 1], vec![0], vec![1.0]),
            Err(MdpError::InvalidDistribution {
                state: 1,
                action: 2,
                ..
            })
        ));
    }

    #[test]
    fn validates_targets_and_probabilities() {
        assert!(matches!(
            parts(vec![0, 1], vec![3], vec![1.0]),
            Err(MdpError::InvalidState { state: 3, .. })
        ));
        assert!(matches!(
            parts(vec![0, 1], vec![0], vec![f64::NAN]),
            Err(MdpError::InvalidDistribution {
                state: 0,
                action: 2,
                ..
            })
        ));
        // Negative entries are rejected even when the row sums to 1, and
        // the error names the action the row was copied from.
        let err = parts(vec![0, 2, 3], vec![0, 1, 1], vec![-0.5, 1.5, 1.0]).unwrap_err();
        assert_eq!(
            err,
            MdpError::InvalidDistribution {
                state: 0,
                action: 2,
                sum: -0.5,
            }
        );
    }

    #[test]
    fn rejects_empty_chain() {
        assert_eq!(
            parts(vec![0], vec![], vec![]).unwrap_err(),
            MdpError::EmptyModel
        );
    }

    #[test]
    fn accepts_duplicate_targets_that_sum_to_one() {
        let chain = chain_from_rows(&[vec![(0, 0.25), (0, 0.75)]]);
        assert_eq!(chain.successors(0), (&[0u32][..], &[1.0][..]));
        assert_eq!(chain.num_transitions(), 1);
    }

    #[test]
    fn from_csr_parts_validates() {
        let invariant = |result: Result<MarkovChain, MdpError>| {
            matches!(result, Err(MdpError::InvariantViolation { .. }))
        };
        // row_ptr empty or not starting at zero.
        assert!(invariant(parts(vec![], vec![], vec![])));
        assert!(invariant(parts(vec![1, 1], vec![], vec![])));
        // Entry count mismatch, against row_ptr and between the arrays.
        assert!(invariant(parts(vec![0, 2], vec![0], vec![1.0])));
        assert!(invariant(parts(vec![0, 1], vec![0], vec![0.5, 0.5])));
        // Non-monotone row_ptr.
        assert!(invariant(parts(vec![0, 2, 1], vec![0], vec![1.0])));
        // Unsorted and duplicate successors within a row.
        assert!(invariant(parts(vec![0, 2, 2], vec![1, 0], vec![0.5, 0.5])));
        assert!(invariant(parts(vec![0, 2], vec![0, 0], vec![0.5, 0.5])));
        // A well-formed chain round-trips.
        let chain = parts(vec![0, 2, 3], vec![0, 1, 0], vec![0.5, 0.5, 1.0]).unwrap();
        assert_eq!(chain.num_states(), 2);
        assert_eq!(chain.num_transitions(), 3);
        assert_eq!(chain.successors(0), (&[0u32, 1][..], &[0.5, 0.5][..]));
        assert_eq!(chain.successors(1), (&[0u32][..], &[1.0][..]));
    }

    #[test]
    fn from_csr_parts_matches_from_rows() {
        // The raw-parts pass and the builder path (unsorted rows, sorted and
        // merged by `CsrMdpBuilder`, copied by `induced_chain`) agree.
        let via_parts = parts(vec![0, 2, 3], vec![0, 1, 0], vec![0.5, 0.5, 1.0]).unwrap();
        let via_rows = chain_from_rows(&[vec![(1, 0.5), (0, 0.5)], vec![(0, 1.0)]]);
        assert_eq!(via_parts, via_rows);
    }
}
