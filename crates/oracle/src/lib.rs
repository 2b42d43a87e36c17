//! Exact reference solvers for cross-checking the selfish-mining solver
//! stack.
//!
//! The analysis pipeline runs one mean-payoff solver (relative value
//! iteration, `sm_mdp::RelativeValueIteration`) and one evaluator for the
//! revenue of a fixed strategy (the fused gain sweeps,
//! `sm_mdp::iterative_gains`). Both are iterative and certify their
//! results only up to a tolerance. This crate holds the *exact* methods the
//! tests compare them against:
//!
//! * [`PolicyIteration`] — Howard's algorithm with multichain gain/bias
//!   evaluation by dense linear solves.
//! * [`LinearProgrammingSolver`] — the gain LP over a two-phase simplex
//!   ([`LinearProgram`] / [`SimplexSolver`]).
//! * [`long_run_average_reward`] — the exact gain of every state of a Markov
//!   chain, from the stationary distributions of its recurrent classes
//!   ([`ChainAnalysis::stationary_distribution`]) and absorption into them
//!   from transient states.
//! * [`StronglyConnectedComponents`] and the [`ChainAnalysis`] methods on
//!   `sm_mdp::MarkovChain`; test chains are
//!   built by [`chain_from_rows`], through the same `CsrMdpBuilder` and
//!   `Mdp::induced_chain` path every production chain takes.
//! * [`DenseMatrix`] and an LU solver — the dense substrate of all of the
//!   above.
//! * [`TransitionRewards`] — per-transition rewards `r(s, a, s')`, the input
//!   of the exact solvers above (the production solver takes one expected
//!   reward per state-action pair instead).
//!
//! The crate is a development dependency only: no library or binary of the
//! workspace links it, so nothing here can change what the pipeline
//! computes. The dense solvers report [`LinalgError`]; the analyses built on
//! them report [`OracleError`], which wraps it, the production
//! `sm_mdp::MdpError` and the oracle-only [`OracleError::NotIrreducible`].
//!
//! # Example
//!
//! ```
//! use sm_oracle::{chain_from_rows, long_run_average_reward, ChainAnalysis};
//!
//! # fn main() -> Result<(), sm_oracle::OracleError> {
//! // A two-state chain that flips with probability 0.3 / 0.6.
//! let chain = chain_from_rows(&[
//!     vec![(0, 0.7), (1, 0.3)],
//!     vec![(0, 0.6), (1, 0.4)],
//! ])?;
//! let pi = chain.stationary_distribution()?;
//! assert!((pi[0] - 2.0 / 3.0).abs() < 1e-9);
//! let gain = long_run_average_reward(&chain, &[3.0, 0.0])?;
//! assert!((gain[0] - 2.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod classify;
mod dense;
mod error;
mod lp;
mod lu;
mod policy_iteration;
mod reward;
mod rewards;
mod simplex;
mod stationary;
mod vector;

pub use chain::{chain_from_rows, ChainAnalysis};
pub use classify::{StateClass, StronglyConnectedComponents};
pub use dense::DenseMatrix;
pub use error::{LinalgError, OracleError};
pub use lp::LinearProgrammingSolver;
use lu::solve_linear_system;
pub use policy_iteration::PolicyIteration;
pub use reward::long_run_average_reward;
pub use rewards::TransitionRewards;
pub use simplex::{Comparison, LinearProgram, LpSolution, LpStatus, ObjectiveSense, SimplexSolver};
pub use vector::{dot, infinity_norm, max_abs_diff, scale};

/// Default numerical tolerance used across the crate when comparing floats.
pub const DEFAULT_TOLERANCE: f64 = 1e-10;
