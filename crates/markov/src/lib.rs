//! Finite Markov chains and the evaluator of a fixed strategy's gains.
//!
//! A positional strategy in the selfish-mining MDP induces a finite Markov
//! chain; the paper's Theorem 3.1 argues about the long-run behaviour of these
//! induced chains (ergodicity, strong law of large numbers, long-run average
//! rewards). The pipeline needs one thing from such a chain — the long-run
//! average rewards that make up a strategy's revenue — and this crate
//! provides it:
//!
//! * [`MarkovChain`] — a row-stochastic transition matrix with validation.
//! * [`iterative_gains`] — the gains of a unichain under several reward
//!   functions at once, by fused sparse sweeps that are bit-identical for any
//!   thread count.
//! * [`SolverParallelism`], [`mass_balanced_blocks`] and [`sweep_scope`] —
//!   the deterministic row-block parallelism shared with the MDP solver of
//!   `sm-mdp`.
//!
//! The exact chain analyses the tests check the sweeps against (SCC
//! classification, stationary distributions, hitting analysis, the exact
//! gain by dense solves) live in the dev-only `sm-oracle` crate.
//!
//! # Example
//!
//! ```
//! use sm_markov::{iterative_gains, MarkovChain, SolverParallelism};
//!
//! # fn main() -> Result<(), sm_markov::MarkovError> {
//! // A two-state chain that flips with probability 0.3 / 0.6: its
//! // stationary distribution is (2/3, 1/3).
//! let chain = MarkovChain::from_rows(vec![
//!     vec![(0, 0.7), (1, 0.3)],
//!     vec![(0, 0.6), (1, 0.4)],
//! ])?;
//! let (gains, _bias) = iterative_gains(&chain, &[&[1.0, 0.0]], None, SolverParallelism::serial())?;
//! assert!((gains[0] - 2.0 / 3.0).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod error;
mod parallel;
mod reward;

pub use chain::MarkovChain;
pub use error::MarkovError;
pub use parallel::{
    mass_balanced_blocks, mass_capped_threads, sweep_scope, BlockPool, SolverParallelism,
    MIN_BLOCK_MASS,
};
pub use reward::iterative_gains;

/// Tolerance used when validating that rows are probability distributions.
pub const STOCHASTIC_TOLERANCE: f64 = 1e-9;
