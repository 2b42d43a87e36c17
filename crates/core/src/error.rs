//! Error type for the selfish-mining model and analysis.

use sm_chain::ChainError;
use sm_mdp::MdpError;
use std::error::Error;
use std::fmt;

/// Errors produced while building or analysing the selfish-mining MDP.
#[derive(Debug, Clone, PartialEq)]
pub enum SelfishMiningError {
    /// A model or attack parameter violates its constraint.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the violated constraint.
        constraint: &'static str,
    },
    /// The reachable state space exceeds the configured limit.
    StateSpaceTooLarge {
        /// Number of states discovered before giving up.
        discovered: usize,
        /// The configured limit.
        limit: usize,
    },
    /// An action was applied in a state where it is not available.
    UnavailableAction {
        /// Debug rendering of the state.
        state: String,
        /// Debug rendering of the action.
        action: String,
    },
    /// The binary search of Algorithm 1 failed to bracket the optimum, which
    /// indicates an inconsistent solver result.
    BracketingFailure {
        /// The lower end of the bracket.
        beta_low: f64,
        /// The upper end of the bracket.
        beta_up: f64,
    },
    /// An iterative analysis procedure exhausted its iteration budget before
    /// reaching the requested precision.
    ConvergenceFailure {
        /// The procedure that failed.
        method: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// An underlying MDP or induced-chain computation failed.
    Mdp(MdpError),
}

impl fmt::Display for SelfishMiningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelfishMiningError::InvalidParameter { name, constraint } => {
                write!(f, "parameter {name} violates constraint: {constraint}")
            }
            SelfishMiningError::StateSpaceTooLarge { discovered, limit } => write!(
                f,
                "reachable state space exceeds limit ({discovered} discovered, limit {limit})"
            ),
            SelfishMiningError::UnavailableAction { state, action } => {
                write!(f, "action {action} is not available in state {state}")
            }
            SelfishMiningError::BracketingFailure { beta_low, beta_up } => write!(
                f,
                "binary search failed to bracket the optimum (beta in [{beta_low}, {beta_up}])"
            ),
            SelfishMiningError::ConvergenceFailure { method, iterations } => {
                write!(f, "{method} did not converge after {iterations} iterations")
            }
            SelfishMiningError::Mdp(err) => write!(f, "MDP error: {err}"),
        }
    }
}

impl Error for SelfishMiningError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SelfishMiningError::Mdp(err) => Some(err),
            _ => None,
        }
    }
}

impl From<MdpError> for SelfishMiningError {
    fn from(err: MdpError) -> Self {
        SelfishMiningError::Mdp(err)
    }
}

impl From<ChainError> for SelfishMiningError {
    /// Lifts a chain-layer parameter error into the model layer. The chain
    /// error carries the same `(name, constraint)` shape and wording, so the
    /// conversion is lossless.
    fn from(err: ChainError) -> Self {
        match err {
            ChainError::InvalidParameter { name, constraint } => {
                SelfishMiningError::InvalidParameter { name, constraint }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let err = SelfishMiningError::StateSpaceTooLarge {
            discovered: 1000,
            limit: 500,
        };
        assert!(err.to_string().contains("1000"));
        assert!(err.to_string().contains("500"));
    }

    #[test]
    fn convergence_failure_reports_method_and_budget() {
        let err = SelfishMiningError::ConvergenceFailure {
            method: "dinkelbach",
            iterations: 200,
        };
        let rendered = err.to_string();
        assert!(rendered.contains("dinkelbach") && rendered.contains("200"));
    }

    #[test]
    fn conversions_set_source() {
        let err: SelfishMiningError = MdpError::EmptyModel.into();
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn chain_errors_lift_losslessly() {
        let err: SelfishMiningError = ChainError::InvalidParameter {
            name: "p",
            constraint: "must lie in [0, 1]",
        }
        .into();
        assert_eq!(
            err,
            SelfishMiningError::InvalidParameter {
                name: "p",
                constraint: "must lie in [0, 1]",
            }
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SelfishMiningError>();
    }
}
