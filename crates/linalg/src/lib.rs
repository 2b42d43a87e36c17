//! Sparse linear algebra for the selfish-mining solver stack.
//!
//! This crate is the lowest-level substrate of the reproduction of
//! *"Fully Automated Selfish Mining Analysis in Efficient Proof Systems
//! Blockchains"* (PODC 2024). The paper solves mean-payoff Markov decision
//! processes with the off-the-shelf probabilistic model checker Storm; this
//! workspace instead builds its own solver stack, whose strategy-induced
//! Markov chains are stored here:
//!
//! * [`CsrMatrix`] — a compressed sparse row matrix with compact `u32`
//!   indices, the transition matrix of `sm_markov::MarkovChain`.
//! * [`LinalgError`] — the error type of the numerical routines, surfaced
//!   through `sm_markov::MarkovError` and `sm_mdp::MdpError`.
//!
//! The dense LU and simplex solvers the tests use as exact oracles live in
//! the dev-only `sm-oracle` crate.
//!
//! # Example
//!
//! ```
//! use sm_linalg::{CsrMatrix, Triplet};
//!
//! # fn main() -> Result<(), sm_linalg::LinalgError> {
//! let m = CsrMatrix::from_triplets(2, 2, &[
//!     Triplet::new(0, 0, 2.0),
//!     Triplet::new(0, 1, 1.0),
//!     Triplet::new(1, 1, 3.0),
//! ])?;
//! assert_eq!(m.nnz(), 3);
//! assert_eq!(m.get(0, 1), 1.0);
//! assert_eq!(m.row(1), (&[1u32][..], &[3.0][..]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod sparse;

pub use error::LinalgError;
pub use sparse::{CsrMatrix, Triplet, COMPACT_INDEX_LIMIT};
