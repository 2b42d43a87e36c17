//! Finite-state Markov decision processes and mean-payoff solvers.
//!
//! The PODC 2024 selfish-mining analysis reduces the expected-relative-revenue
//! objective to a family of *mean-payoff* MDP problems and solves each of them
//! with an off-the-shelf probabilistic model checker (Storm). This crate is
//! the reproduction's replacement for that model checker. It provides:
//!
//! * [`Mdp`] — the finite MDP `(S, A, P, s₀)` of Section 2.3, stored as one
//!   flat compressed-sparse-row transition arena and built state by state
//!   with [`CsrMdpBuilder`], which validates every distribution. Every
//!   instantiation of one skeleton shares its index arrays ([`CsrLayout`])
//!   and action names, and the solver sweeps are cache-friendly slice walks
//!   over them instead of nested-`Vec` pointer chases. Rewards are one
//!   expected value per state-action pair, indexed by arena pair offset
//!   (the paper's `r_β = r_A − β(r_A + r_H)` is formed per pair by the
//!   caller).
//! * [`PositionalStrategy`] — memoryless deterministic strategies, which are
//!   sufficient for mean-payoff optimality (Puterman, Thm. 9.1.8).
//! * [`RelativeValueIteration`] — the solver for the *maximal mean payoff*
//!   (sparse, scales to the large selfish-mining models). It runs one sweep
//!   schedule — full Jacobi Bellman sweeps interleaved with Jacobi
//!   policy-evaluation sweeps — in one loop over deterministic row blocks
//!   ([`SolverParallelism`]; a serial solve is the one-block case); its [`ValueIterationOutcome`] carries
//!   certified lower/upper bounds on the optimal gain, an optimal (up to the
//!   requested precision) strategy and the final bias vector. The exact
//!   solvers the tests cross-check it against (Howard policy iteration and
//!   the gain LP) live in the dev-only `sm-oracle` crate.
//!
//! # Example
//!
//! ```
//! use sm_mdp::{CsrMdpBuilder, RelativeValueIteration};
//!
//! # fn main() -> Result<(), sm_mdp::MdpError> {
//! // A two-state MDP: in state 0 the action `stay` earns 1 and loops,
//! // the action `leave` earns 0 and moves to state 1, from which the only
//! // action returns to 0 earning 0.5. Optimal mean payoff is 1 (keep staying).
//! let mut builder = CsrMdpBuilder::new();
//! builder.begin_state(); // state 0
//! builder.add_action("stay", &[(0, 1.0)])?;
//! builder.add_action("leave", &[(1, 1.0)])?;
//! builder.begin_state(); // state 1
//! builder.add_action("back", &[(0, 1.0)])?;
//! let mdp = builder.finish(0)?;
//! // One expected reward per state-action pair, in arena order:
//! // (0, stay), (0, leave), (1, back).
//! let rewards = [1.0, 0.0, 0.5];
//! let result = RelativeValueIteration::with_epsilon(1e-7).solve(&mdp, &rewards)?;
//! assert!(result.gain_lower <= 1.0 && 1.0 <= result.gain_upper);
//! assert!((result.gain - 1.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
mod error;
mod model;
mod strategy;
mod value_iteration;

pub use csr::{CsrLayout, CsrMdpBuilder, COMPACT_ARENA_LIMIT};
pub use error::MdpError;
pub use model::Mdp;
pub use strategy::PositionalStrategy;
pub use value_iteration::{RelativeValueIteration, ValueIterationOutcome};

// Intra-solve parallelism, shared with the chain-evaluation sweeps:
// re-exported so solver users configure everything from one crate.
pub use sm_markov::SolverParallelism;

/// Tolerance used when validating transition probability distributions.
pub const PROBABILITY_TOLERANCE: f64 = 1e-9;
