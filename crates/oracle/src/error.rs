//! The error types of the exact oracles: [`LinalgError`] for the dense LU
//! solve, and [`OracleError`] for the analyses built on it.

use sm_mdp::MdpError;
use std::error::Error;
use std::fmt;

/// Errors produced by the dense LU solve.
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
    /// A dense linear solve failed.
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
                    operation: "lu solve",
                    expected: 3,
                    actual: 2,
                },
                "lu solve",
            ),
            (LinalgError::SingularMatrix, "singular"),
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
