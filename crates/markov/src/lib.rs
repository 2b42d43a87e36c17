//! Finite Markov chain analysis.
//!
//! A positional strategy in the selfish-mining MDP induces a finite Markov
//! chain; the paper's Theorem 3.1 argues about the long-run behaviour of these
//! induced chains (ergodicity, strong law of large numbers, long-run average
//! rewards). This crate provides the corresponding machinery:
//!
//! * [`MarkovChain`] — a row-stochastic transition matrix with validation.
//! * [`StronglyConnectedComponents`] — Tarjan SCC decomposition, recurrent
//!   class and transient state identification.
//! * [`StationaryDistribution`] — stationary distributions per recurrent
//!   class, via direct linear solve or power iteration.
//! * [`long_run_average_reward`] — the gain of a chain under a reward
//!   function, the quantity that policy evaluation in `sm-mdp` needs.
//! * [`HittingAnalysis`] — hitting probabilities and expected hitting times.
//!
//! # Example
//!
//! ```
//! use sm_markov::MarkovChain;
//!
//! # fn main() -> Result<(), sm_markov::MarkovError> {
//! // A two-state chain that flips with probability 0.3 / 0.6.
//! let chain = MarkovChain::from_rows(vec![
//!     vec![(0, 0.7), (1, 0.3)],
//!     vec![(0, 0.6), (1, 0.4)],
//! ])?;
//! let pi = chain.stationary_distribution()?;
//! assert!((pi[0] - 2.0 / 3.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod classify;
mod error;
mod hitting;
mod parallel;
mod reward;
mod stationary;

pub use chain::MarkovChain;
pub use classify::{StateClass, StronglyConnectedComponents};
pub use error::MarkovError;
pub use hitting::HittingAnalysis;
pub use parallel::{
    mass_balanced_blocks, mass_capped_threads, sweep_scope, BlockPool, SolverParallelism,
    MIN_BLOCK_MASS,
};
pub use reward::{
    iterative_gain, iterative_gains, iterative_gains_seeded, iterative_gains_seeded_with,
    long_run_average_reward, total_expected_reward_until_absorption,
};
pub use stationary::{StationaryDistribution, StationaryMethod};

/// Tolerance used when validating that rows are probability distributions.
pub const STOCHASTIC_TOLERANCE: f64 = 1e-9;
