//! Error type for MDP construction and solving.

use std::error::Error;
use std::fmt;

/// Errors produced while building or solving an MDP, or while extracting
/// and evaluating the Markov chain one of its strategies induces.
#[derive(Debug, Clone, PartialEq)]
pub enum MdpError {
    /// A state index is out of range.
    InvalidState {
        /// The offending state index.
        state: usize,
        /// The number of states in the MDP.
        num_states: usize,
    },
    /// A transition distribution does not sum to 1 or contains invalid values.
    InvalidDistribution {
        /// State the action belongs to.
        state: usize,
        /// Name of the offending action.
        action: String,
        /// Sum of the provided probabilities.
        sum: f64,
    },
    /// A state has no available action (the MDP would deadlock).
    NoActions {
        /// The deadlocking state.
        state: usize,
    },
    /// An action index is out of range for the given state.
    InvalidAction {
        /// The state.
        state: usize,
        /// The requested action index.
        action: usize,
        /// The number of actions available in the state.
        available: usize,
    },
    /// A reward structure does not match the MDP shape.
    RewardShapeMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// An iterative solver failed to converge within its budget.
    ConvergenceFailure {
        /// The solver that failed.
        method: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// An index or entry count does not fit the compact (`u32`) CSR arena
    /// storage. Raised by the checked `usize` → `u32` build paths instead of
    /// silently wrapping; arenas this large need a wider index type, not a
    /// truncated one.
    IndexOverflow {
        /// The index or count that did not fit.
        value: usize,
        /// The largest representable value.
        limit: usize,
    },
    /// The MDP is empty.
    EmptyModel,
    /// An invalid parameter was supplied to a solver.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the constraint that was violated.
        constraint: &'static str,
    },
    /// A structural invariant was violated: a malformed arena or chain
    /// handed to a raw-parts constructor, or a "cannot happen" condition
    /// surfaced as a typed error instead of a panic, so library callers can
    /// recover (or at least report) rather than unwind.
    InvariantViolation {
        /// Description of the violated invariant.
        detail: String,
    },
}

impl fmt::Display for MdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdpError::InvalidState { state, num_states } => {
                write!(f, "state {state} out of range (num states {num_states})")
            }
            MdpError::InvalidDistribution { state, action, sum } => write!(
                f,
                "action '{action}' in state {state} has probabilities summing to {sum}"
            ),
            MdpError::NoActions { state } => write!(f, "state {state} has no actions"),
            MdpError::InvalidAction {
                state,
                action,
                available,
            } => write!(
                f,
                "action index {action} invalid in state {state} ({available} available)"
            ),
            MdpError::RewardShapeMismatch { detail } => {
                write!(f, "reward shape mismatch: {detail}")
            }
            MdpError::ConvergenceFailure { method, iterations } => {
                write!(f, "{method} did not converge after {iterations} iterations")
            }
            MdpError::IndexOverflow { value, limit } => write!(
                f,
                "index or count {value} exceeds the compact CSR arena limit {limit}"
            ),
            MdpError::EmptyModel => write!(f, "MDP has no states"),
            MdpError::InvalidParameter { name, constraint } => {
                write!(f, "parameter {name} violates constraint: {constraint}")
            }
            MdpError::InvariantViolation { detail } => {
                write!(f, "structural invariant violated: {detail}")
            }
        }
    }
}

impl Error for MdpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let err = MdpError::InvalidDistribution {
            state: 2,
            action: "mine".to_string(),
            sum: 0.9,
        };
        let s = err.to_string();
        assert!(s.contains("mine") && s.contains('2') && s.contains("0.9"));
    }

    #[test]
    fn overflow_display_names_both_sides() {
        let err = MdpError::IndexOverflow {
            value: 5_000_000_000,
            limit: u32::MAX as usize,
        };
        let s = err.to_string();
        assert!(s.contains("5000000000") && s.contains(&u32::MAX.to_string()));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MdpError>();
    }
}
