//! The error types of the exact oracles: [`LinalgError`] for the dense
//! linear algebra and the simplex, and [`OracleError`] for the analyses
//! built on them.

use sm_mdp::MdpError;
use std::error::Error;
use std::fmt;

/// Errors produced by the dense linear-algebra routines and the simplex.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A matrix was expected to be square but is not.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// Two operands have incompatible dimensions.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        operation: &'static str,
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually provided.
        actual: usize,
    },
    /// The matrix is singular (or numerically singular) and cannot be factorised.
    SingularMatrix,
    /// A matrix was constructed from rows of differing lengths.
    RaggedRows,
    /// The linear program is infeasible.
    Infeasible,
    /// The linear program is unbounded in the direction of optimisation.
    Unbounded,
    /// The simplex solver exceeded its iteration budget (cycling safeguard).
    IterationLimit {
        /// The iteration budget that was exhausted.
        limit: usize,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The container length.
        len: usize,
    },
    /// An invalid value (NaN / infinite coefficient) was supplied.
    InvalidValue {
        /// Description of where the invalid value appeared.
        context: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square ({rows}x{cols})")
            }
            LinalgError::DimensionMismatch {
                operation,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {operation}: expected {expected}, got {actual}"
            ),
            LinalgError::SingularMatrix => write!(f, "matrix is singular"),
            LinalgError::RaggedRows => write!(f, "rows have differing lengths"),
            LinalgError::Infeasible => write!(f, "linear program is infeasible"),
            LinalgError::Unbounded => write!(f, "linear program is unbounded"),
            LinalgError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit of {limit} exceeded")
            }
            LinalgError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            LinalgError::InvalidValue { context } => {
                write!(f, "invalid value (NaN or infinity) in {context}")
            }
        }
    }
}

impl Error for LinalgError {}

/// Errors of the exact chain and MDP analyses: the production [`MdpError`]
/// of the model, strategy or rewards they were given, a failed dense solve,
/// or the one oracle-only case, a stationary distribution asked of a chain
/// with several recurrent classes.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleError {
    /// The chain has more than one recurrent class, so it has no unique
    /// stationary distribution.
    NotIrreducible,
    /// A dense linear solve or the simplex failed.
    Linalg(LinalgError),
    /// The model, strategy, rewards or another input was rejected.
    Mdp(MdpError),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::NotIrreducible => write!(f, "chain is not irreducible"),
            OracleError::Linalg(err) => write!(f, "linear algebra error: {err}"),
            OracleError::Mdp(err) => write!(f, "MDP error: {err}"),
        }
    }
}

impl Error for OracleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OracleError::NotIrreducible => None,
            OracleError::Linalg(err) => Some(err),
            OracleError::Mdp(err) => Some(err),
        }
    }
}

impl From<LinalgError> for OracleError {
    fn from(err: LinalgError) -> Self {
        OracleError::Linalg(err)
    }
}

impl From<MdpError> for OracleError {
    fn from(err: MdpError) -> Self {
        OracleError::Mdp(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_meaningful() {
        let cases: Vec<(LinalgError, &str)> = vec![
            (LinalgError::NotSquare { rows: 2, cols: 3 }, "not square"),
            (
                LinalgError::DimensionMismatch {
                    operation: "matvec",
                    expected: 3,
                    actual: 2,
                },
                "matvec",
            ),
            (LinalgError::SingularMatrix, "singular"),
            (LinalgError::RaggedRows, "differing lengths"),
            (LinalgError::Infeasible, "infeasible"),
            (LinalgError::Unbounded, "unbounded"),
            (LinalgError::IterationLimit { limit: 10 }, "10"),
            (
                LinalgError::IndexOutOfBounds { index: 5, len: 3 },
                "out of bounds",
            ),
            (
                LinalgError::InvalidValue {
                    context: "objective",
                },
                "objective",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }

    #[test]
    fn displays_contain_key_information() {
        assert!(OracleError::NotIrreducible
            .to_string()
            .contains("not irreducible"));
        let err = OracleError::Mdp(MdpError::ConvergenceFailure {
            method: "stationary linear solve",
            iterations: 1,
        });
        assert!(err.to_string().contains("stationary linear solve"));
    }

    #[test]
    fn wraps_linalg_errors_with_source() {
        let err: OracleError = LinalgError::SingularMatrix.into();
        assert_eq!(err, OracleError::Linalg(LinalgError::SingularMatrix));
        assert!(Error::source(&err).is_some());
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn conversions_preserve_source() {
        let err: OracleError = MdpError::EmptyModel.into();
        assert!(Error::source(&err).is_some());
        assert!(Error::source(&OracleError::NotIrreducible).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
        assert_send_sync::<OracleError>();
    }
}
