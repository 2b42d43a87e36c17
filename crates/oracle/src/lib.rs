//! Exact reference solvers for cross-checking the selfish-mining solver
//! stack.
//!
//! The analysis pipeline runs one mean-payoff solver (relative value
//! iteration, `sm_mdp::RelativeValueIteration`) and one evaluator for the
//! revenue of a fixed strategy (the fused gain sweeps,
//! `sm_markov::iterative_gains`). Both are iterative and certify their
//! results only up to a tolerance. This crate holds the *exact* methods the
//! tests and benches compare them against:
//!
//! * [`PolicyIteration`] / [`PolicyEvaluation`] — Howard's algorithm with
//!   multichain gain/bias evaluation by dense linear solves.
//! * [`LinearProgrammingSolver`] — the gain LP over a two-phase simplex
//!   ([`LinearProgram`] / [`SimplexSolver`]).
//! * [`long_run_average_reward`] — the exact gain of every state of a Markov
//!   chain, from the stationary distributions of its recurrent classes
//!   ([`ChainAnalysis::stationary_distribution`]) and absorption into them
//!   from transient states.
//! * [`StronglyConnectedComponents`], [`HittingAnalysis`] and the
//!   [`ChainAnalysis`] methods on `sm_markov::MarkovChain`.
//! * [`DenseMatrix`] / [`LuDecomposition`] — the dense substrate of all of
//!   the above.
//! * [`TransitionRewards`] — per-transition rewards `r(s, a, s')`, the input
//!   of the exact solvers above (the production solver takes one expected
//!   reward per state-action pair instead).
//!
//! The crate is a development dependency only: no library or binary of the
//! workspace links it, so nothing here can change what the pipeline
//! computes. Its solvers report failures through the production error types
//! (`sm_linalg::LinalgError`, `sm_markov::MarkovError`,
//! `sm_mdp::MdpError`).
//!
//! # Example
//!
//! ```
//! use sm_markov::MarkovChain;
//! use sm_oracle::{long_run_average_reward, ChainAnalysis};
//!
//! # fn main() -> Result<(), sm_markov::MarkovError> {
//! // A two-state chain that flips with probability 0.3 / 0.6.
//! let chain = MarkovChain::from_rows(vec![
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
mod hitting;
mod lp;
mod lu;
mod policy_iteration;
mod reward;
mod rewards;
mod simplex;
mod stationary;
mod vector;

pub use chain::ChainAnalysis;
pub use classify::{StateClass, StronglyConnectedComponents};
pub use dense::DenseMatrix;
pub use hitting::HittingAnalysis;
pub use lp::LinearProgrammingSolver;
pub use lu::{solve_linear_system, LuDecomposition};
pub use policy_iteration::{PolicyEvaluation, PolicyIteration};
pub use reward::long_run_average_reward;
pub use rewards::TransitionRewards;
pub use simplex::{Comparison, LinearProgram, LpSolution, LpStatus, ObjectiveSense, SimplexSolver};
pub use vector::{dot, infinity_norm, max_abs_diff, scale};

/// Default numerical tolerance used across the crate when comparing floats.
pub const DEFAULT_TOLERANCE: f64 = 1e-10;
