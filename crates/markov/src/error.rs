//! Error type for Markov-chain analysis.

use sm_linalg::LinalgError;
use std::error::Error;
use std::fmt;

/// Errors produced while constructing or analysing a Markov chain.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// A transition row does not form a probability distribution.
    InvalidDistribution {
        /// Index of the offending state.
        state: usize,
        /// The sum of its outgoing probabilities.
        sum: f64,
    },
    /// A transition references a state outside the chain.
    InvalidTargetState {
        /// Source state of the transition.
        from: usize,
        /// The out-of-range target.
        to: usize,
        /// Number of states in the chain.
        num_states: usize,
    },
    /// A probability was negative, NaN or infinite.
    InvalidProbability {
        /// Source state of the transition.
        state: usize,
        /// The offending probability value.
        probability: f64,
    },
    /// The chain has no states.
    EmptyChain,
    /// The requested operation needs a chain with a single recurrent class
    /// but the chain has several (raised by the exact stationary analysis of
    /// the dev-only `sm-oracle` crate).
    NotIrreducible,
    /// An iterative method failed to converge within its iteration budget.
    ConvergenceFailure {
        /// The method that failed.
        method: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// A reward vector does not match the number of states.
    RewardDimensionMismatch {
        /// Expected number of entries (number of states).
        expected: usize,
        /// Actual number of entries.
        actual: usize,
    },
    /// An underlying linear-algebra routine failed.
    Linalg(LinalgError),
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::InvalidDistribution { state, sum } => {
                write!(f, "row of state {state} sums to {sum}, expected 1")
            }
            MarkovError::InvalidTargetState {
                from,
                to,
                num_states,
            } => write!(
                f,
                "transition {from} -> {to} exceeds state count {num_states}"
            ),
            MarkovError::InvalidProbability { state, probability } => {
                write!(f, "state {state} has invalid probability {probability}")
            }
            MarkovError::EmptyChain => write!(f, "chain has no states"),
            MarkovError::NotIrreducible => write!(f, "chain is not irreducible"),
            MarkovError::ConvergenceFailure { method, iterations } => {
                write!(f, "{method} did not converge after {iterations} iterations")
            }
            MarkovError::RewardDimensionMismatch { expected, actual } => {
                write!(f, "reward vector has {actual} entries, expected {expected}")
            }
            MarkovError::Linalg(err) => write!(f, "linear algebra error: {err}"),
        }
    }
}

impl Error for MarkovError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MarkovError::Linalg(err) => Some(err),
            _ => None,
        }
    }
}

impl From<LinalgError> for MarkovError {
    fn from(err: LinalgError) -> Self {
        MarkovError::Linalg(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_contain_key_information() {
        let err = MarkovError::InvalidDistribution { state: 3, sum: 0.5 };
        assert!(err.to_string().contains('3'));
        assert!(err.to_string().contains("0.5"));

        let err = MarkovError::ConvergenceFailure {
            method: "power iteration",
            iterations: 100,
        };
        assert!(err.to_string().contains("power iteration"));
    }

    #[test]
    fn wraps_linalg_errors_with_source() {
        let err: MarkovError = LinalgError::SingularMatrix.into();
        assert!(matches!(err, MarkovError::Linalg(_)));
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MarkovError>();
    }
}
