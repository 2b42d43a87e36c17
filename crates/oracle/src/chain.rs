//! Exact structural and stationary analysis of a `sm_mdp::MarkovChain`, and
//! the helper that builds test chains.

use crate::{OracleError, StronglyConnectedComponents};
use sm_mdp::{CsrMdpBuilder, MarkovChain, MdpError, PositionalStrategy};

/// The chain whose state `s` moves along `rows[s]` (`(target, probability)`
/// pairs), built the way every production chain is built: as a one-action
/// MDP streamed through [`CsrMdpBuilder`] (duplicate targets summed, zero
/// probabilities dropped, successors sorted) and the chain its only strategy
/// induces.
///
/// # Errors
///
/// The builder's [`MdpError`] for an empty chain, an out-of-range target or
/// a row that is not a probability distribution.
pub fn chain_from_rows(rows: &[Vec<(usize, f64)>]) -> Result<MarkovChain, MdpError> {
    let mut builder = CsrMdpBuilder::new();
    for row in rows {
        builder.begin_state();
        builder.add_action(row)?;
    }
    let strategy = PositionalStrategy::uniform_first_action(rows.len());
    builder.finish()?.induced_chain(&strategy)
}

/// The exact analyses of a chain, as methods on `sm_mdp::MarkovChain`.
///
/// # Example
///
/// ```
/// use sm_oracle::{chain_from_rows, ChainAnalysis};
///
/// # fn main() -> Result<(), sm_oracle::OracleError> {
/// let chain = chain_from_rows(&[
///     vec![(1, 1.0)],
///     vec![(0, 0.5), (1, 0.5)],
/// ])?;
/// assert!(chain.is_irreducible());
/// let pi = chain.stationary_distribution()?;
/// assert!((pi[0] - 1.0 / 3.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub trait ChainAnalysis {
    /// SCC decomposition and state classification for this chain.
    fn classify(&self) -> StronglyConnectedComponents;

    /// Whether the chain consists of a single closed communicating class.
    fn is_irreducible(&self) -> bool {
        self.classify().num_components() == 1
    }

    /// Whether the chain has exactly one recurrent class (unichain
    /// condition; transient states are allowed).
    fn is_unichain(&self) -> bool {
        self.classify().recurrent_classes().len() == 1
    }

    /// Stationary distribution of a unichain over the full state space
    /// (transient states receive probability 0), by direct linear solve.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::NotIrreducible`] if the chain has more than one
    /// recurrent class, and propagates numerical errors from the solver.
    fn stationary_distribution(&self) -> Result<Vec<f64>, OracleError>;
}

impl ChainAnalysis for MarkovChain {
    fn classify(&self) -> StronglyConnectedComponents {
        StronglyConnectedComponents::of_chain(self)
    }

    fn stationary_distribution(&self) -> Result<Vec<f64>, OracleError> {
        crate::stationary::unichain_distribution(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_mdp::{CsrLayout, Mdp};
    use std::sync::Arc;

    #[test]
    fn irreducibility_detection() {
        let irreducible = chain_from_rows(&[vec![(1, 1.0)], vec![(0, 1.0)]]).unwrap();
        assert!(irreducible.is_irreducible());

        let absorbing = chain_from_rows(&[vec![(0, 0.5), (1, 0.5)], vec![(1, 1.0)]]).unwrap();
        assert!(!absorbing.is_irreducible());
        assert!(absorbing.is_unichain());
    }

    #[test]
    fn induced_chain_drops_masked_zero_probability_entries() {
        let layout = Arc::new(
            CsrLayout::from_raw_parts(vec![0, 1, 2], vec![0, 2, 3], vec![0, 1, 1]).unwrap(),
        );
        // State 0's only action keeps a masked (probability-0) edge to the
        // absorbing state 1; the induced chain must not contain that edge, so
        // state 0 is correctly classified as its own recurrent class.
        let mdp = Mdp::from_raw_parts(layout, vec![1.0, 0.0, 1.0]).unwrap();
        let strategy = PositionalStrategy::uniform_first_action(2);
        let chain = mdp.induced_chain(&strategy).unwrap();
        assert_eq!(chain.successors(0), (&[0u32][..], &[1.0f64][..]));
        let scc = chain.classify();
        assert_eq!(scc.recurrent_classes().len(), 2);
    }
}
