//! Adversary actions of the selfish-mining MDP.

use std::fmt;

/// An action of the adversary (Section 3.2, "Actions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmAction {
    /// Keep mining: do not publish anything.
    Mine,
    /// Publish the first `length` blocks of the `fork`-th private fork rooted
    /// at the main-chain block at `depth` (the paper's `release_{i,j,k}`).
    Release {
        /// Depth `i` of the fork's root block on the main chain (1 = tip).
        depth: usize,
        /// Index `j` of the fork among the slots at that depth (1-based).
        fork: usize,
        /// Number of blocks `k` to publish from the front of the fork.
        length: usize,
    },
}

impl SmAction {
    /// Whether this is a release (publish) action.
    pub fn is_release(&self) -> bool {
        matches!(self, SmAction::Release { .. })
    }
}

/// A stable, human-readable label: `mine` or `release(depth,fork,length)`.
impl fmt::Display for SmAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmAction::Mine => f.write_str("mine"),
            SmAction::Release {
                depth,
                fork,
                length,
            } => write!(f, "release({depth},{fork},{length})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let mine = SmAction::Mine;
        let release = SmAction::Release {
            depth: 2,
            fork: 1,
            length: 3,
        };
        assert_eq!(mine.to_string(), "mine");
        assert_eq!(release.to_string(), "release(2,1,3)");
        assert_ne!(mine, release);
        assert!(!mine.is_release());
        assert!(release.is_release());
    }
}
