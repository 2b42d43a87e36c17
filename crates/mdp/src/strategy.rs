//! Positional (memoryless deterministic) strategies.

use std::fmt;

/// A positional strategy: one action index per state.
///
/// Positional strategies suffice for optimal mean-payoff behaviour in finite
/// MDPs (Section 2.3 of the paper, citing Puterman), which is why the solvers
/// in this crate only ever produce this type.
///
/// # Example
///
/// ```
/// use sm_mdp::PositionalStrategy;
///
/// let sigma = PositionalStrategy::new(vec![0, 2, 1]);
/// assert_eq!(sigma.action(1), 2);
/// assert_eq!(sigma.num_states(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PositionalStrategy {
    choices: Vec<usize>,
}

impl PositionalStrategy {
    /// Creates a strategy from a per-state action-index vector.
    pub fn new(choices: Vec<usize>) -> Self {
        PositionalStrategy { choices }
    }

    /// Creates the strategy that picks action 0 in every one of `num_states` states.
    pub fn uniform_first_action(num_states: usize) -> Self {
        PositionalStrategy {
            choices: vec![0; num_states],
        }
    }

    /// Number of states the strategy covers.
    pub fn num_states(&self) -> usize {
        self.choices.len()
    }

    /// Action index chosen in `state`.
    ///
    /// This is the unchecked hot-path accessor used by the solver inner
    /// loops, which iterate over `0..num_states()` by construction. Use
    /// [`PositionalStrategy::get`] when the state index comes from outside
    /// data.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn action(&self, state: usize) -> usize {
        self.choices[state]
    }

    /// Action index chosen in `state`, or `None` if the strategy does not
    /// cover it — the checked counterpart of [`PositionalStrategy::action`]
    /// for state indices originating from user-supplied data.
    pub fn get(&self, state: usize) -> Option<usize> {
        self.choices.get(state).copied()
    }

    /// Replaces the action chosen in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn set_action(&mut self, state: usize, action: usize) {
        self.choices[state] = action;
    }

    /// The underlying per-state action indices.
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }
}

impl fmt::Display for PositionalStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "strategy[")?;
        for (state, action) in self.choices.iter().enumerate() {
            if state > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{state}->{action}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for PositionalStrategy {
    fn from(choices: Vec<usize>) -> Self {
        PositionalStrategy::new(choices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let mut sigma = PositionalStrategy::uniform_first_action(3);
        assert_eq!(sigma.choices(), &[0, 0, 0]);
        sigma.set_action(1, 4);
        assert_eq!(sigma.action(1), 4);
        assert_eq!(sigma.num_states(), 3);
    }

    #[test]
    fn display_lists_choices() {
        let sigma = PositionalStrategy::new(vec![1, 0]);
        assert_eq!(format!("{sigma}"), "strategy[0->1, 1->0]");
    }

    #[test]
    fn from_vec_conversion() {
        let sigma: PositionalStrategy = vec![2, 3].into();
        assert_eq!(sigma.action(0), 2);
    }

    #[test]
    fn checked_accessors_reject_out_of_bounds_states() {
        let mut sigma = PositionalStrategy::uniform_first_action(2);
        assert_eq!(sigma.get(1), Some(0));
        assert_eq!(sigma.get(2), None);
        sigma.set_action(1, 7);
        assert_eq!(sigma.get(1), Some(7));
    }
}
