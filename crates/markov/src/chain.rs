//! The [`MarkovChain`] type: a validated row-stochastic transition structure.

use crate::{MarkovError, STOCHASTIC_TOLERANCE};
use sm_linalg::{CsrMatrix, Triplet};

/// A finite, discrete-time Markov chain stored as a sparse transition matrix.
///
/// Rows are validated on construction: every probability must be finite and
/// non-negative and every row must sum to 1 within [`STOCHASTIC_TOLERANCE`].
///
/// # Example
///
/// ```
/// use sm_markov::MarkovChain;
///
/// # fn main() -> Result<(), sm_markov::MarkovError> {
/// let chain = MarkovChain::from_rows(vec![
///     vec![(1, 1.0)],
///     vec![(0, 0.5), (1, 0.5)],
/// ])?;
/// assert_eq!(chain.num_states(), 2);
/// assert_eq!(chain.successors(1), (&[0u32, 1][..], &[0.5, 0.5][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    transitions: CsrMatrix,
}

impl MarkovChain {
    /// Builds a chain from per-state transition lists `(target, probability)`.
    ///
    /// # Errors
    ///
    /// Returns an error if any probability is invalid, any target state is out
    /// of range, a row does not sum to 1, or the chain is empty.
    pub fn from_rows(rows: Vec<Vec<(usize, f64)>>) -> Result<Self, MarkovError> {
        let n = rows.len();
        if n == 0 {
            return Err(MarkovError::EmptyChain);
        }
        let mut triplets = Vec::new();
        for (state, row) in rows.iter().enumerate() {
            let mut sum = 0.0;
            for &(target, prob) in row {
                if target >= n {
                    return Err(MarkovError::InvalidTargetState {
                        from: state,
                        to: target,
                        num_states: n,
                    });
                }
                if !prob.is_finite() || prob < -STOCHASTIC_TOLERANCE {
                    return Err(MarkovError::InvalidProbability {
                        state,
                        probability: prob,
                    });
                }
                sum += prob;
                if prob > 0.0 {
                    triplets.push(Triplet::new(state, target, prob));
                }
            }
            if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
                return Err(MarkovError::InvalidDistribution { state, sum });
            }
        }
        let transitions = CsrMatrix::from_triplets(n, n, &triplets)?;
        Ok(MarkovChain { transitions })
    }

    /// Builds a chain directly from raw compact CSR arrays (`row_ptr`, `u32`
    /// column indices, probabilities), validating both the CSR invariants and
    /// row stochasticity.
    ///
    /// This is the allocation-light path used when a chain is extracted from
    /// an already-CSR source — in particular the flat transition arena of
    /// `sm-mdp`, whose strategy-induced chains are row-slice copies of the
    /// arena and arrive here without any per-row staging or index widening.
    ///
    /// # Errors
    ///
    /// Propagates CSR shape errors from the sparse constructor and returns
    /// [`MarkovError::InvalidDistribution`] if some row does not sum to 1 or
    /// has negative entries, or [`MarkovError::EmptyChain`] for an empty
    /// chain.
    pub fn from_csr_parts_u32(
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        probabilities: Vec<f64>,
    ) -> Result<Self, MarkovError> {
        let n = row_ptr.len().saturating_sub(1);
        let transitions = CsrMatrix::from_raw_parts_u32(n, n, row_ptr, col_idx, probabilities)?;
        if n == 0 {
            return Err(MarkovError::EmptyChain);
        }
        for state in 0..n {
            let (_, vals) = transitions.row(state);
            let sum: f64 = vals.iter().sum();
            if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE || vals.iter().any(|&v| v < 0.0) {
                return Err(MarkovError::InvalidDistribution { state, sum });
            }
        }
        Ok(MarkovChain { transitions })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.rows()
    }

    /// Successors of a state as parallel slices of (compact `u32`) targets
    /// and probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn successors(&self, state: usize) -> (&[u32], &[f64]) {
        self.transitions.row(state)
    }

    /// Borrow of the underlying sparse transition matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_row_sums() {
        let err = MarkovChain::from_rows(vec![vec![(0, 0.5)]]).unwrap_err();
        assert!(matches!(err, MarkovError::InvalidDistribution { .. }));
    }

    #[test]
    fn validates_targets_and_probabilities() {
        let err = MarkovChain::from_rows(vec![vec![(3, 1.0)]]).unwrap_err();
        assert!(matches!(err, MarkovError::InvalidTargetState { .. }));
        let err = MarkovChain::from_rows(vec![vec![(0, f64::NAN)]]).unwrap_err();
        assert!(matches!(err, MarkovError::InvalidProbability { .. }));
        let err = MarkovChain::from_rows(vec![vec![(0, -0.5), (0, 1.5)]]).unwrap_err();
        assert!(matches!(err, MarkovError::InvalidProbability { .. }));
    }

    #[test]
    fn rejects_empty_chain() {
        assert_eq!(
            MarkovChain::from_rows(vec![]).unwrap_err(),
            MarkovError::EmptyChain
        );
    }

    #[test]
    fn accepts_duplicate_targets_that_sum_to_one() {
        let chain = MarkovChain::from_rows(vec![vec![(0, 0.25), (0, 0.75)]]).unwrap();
        assert_eq!(chain.successors(0), (&[0u32][..], &[1.0][..]));
    }

    #[test]
    fn from_csr_parts_matches_from_rows() {
        let via_rows =
            MarkovChain::from_rows(vec![vec![(0, 0.5), (1, 0.5)], vec![(0, 1.0)]]).unwrap();
        let via_parts =
            MarkovChain::from_csr_parts_u32(vec![0, 2, 3], vec![0, 1, 0], vec![0.5, 0.5, 1.0])
                .unwrap();
        assert_eq!(via_rows, via_parts);
        assert_eq!(via_parts.matrix().nnz(), 3);
    }

    #[test]
    fn from_csr_parts_validates() {
        // Row does not sum to 1.
        assert!(matches!(
            MarkovChain::from_csr_parts_u32(vec![0, 1], vec![0], vec![0.7]),
            Err(MarkovError::InvalidDistribution { .. })
        ));
        // Negative entries are rejected even when the row sums to 1.
        assert!(matches!(
            MarkovChain::from_csr_parts_u32(vec![0, 2, 3], vec![0, 1, 1], vec![-0.5, 1.5, 1.0]),
            Err(MarkovError::InvalidDistribution { .. })
        ));
        // Empty chain.
        assert_eq!(
            MarkovChain::from_csr_parts_u32(vec![0], vec![], vec![]).unwrap_err(),
            MarkovError::EmptyChain
        );
        // Malformed CSR shape surfaces as a linalg-backed error.
        assert!(matches!(
            MarkovChain::from_csr_parts_u32(vec![1, 0], vec![0], vec![1.0]),
            Err(MarkovError::Linalg(_))
        ));
    }
}
