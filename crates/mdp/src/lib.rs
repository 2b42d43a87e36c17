//! Finite-state Markov decision processes and mean-payoff solvers.
//!
//! The PODC 2024 selfish-mining analysis reduces the expected-relative-revenue
//! objective to a family of *mean-payoff* MDP problems and solves each of them
//! with an off-the-shelf probabilistic model checker (Storm). This crate is
//! the reproduction's replacement for that model checker. It provides:
//!
//! * [`Mdp`] — the finite MDP `(S, A, P, s₀)` of Section 2.3, stored as one
//!   flat compressed-sparse-row transition arena and built state by state
//!   with [`CsrMdpBuilder`], which validates every distribution. State 0 is
//!   the start state `s₀`, and an action is its index within its state.
//!   Every instantiation of one skeleton shares its index arrays
//!   ([`CsrLayout`]), and the solver sweeps are cache-friendly slice walks
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
//!   ([`SolverParallelism`]; a serial solve is the one-block case); its
//!   [`ValueIterationOutcome`] carries certified lower/upper bounds on the
//!   optimal gain, an optimal (up to the requested precision) strategy and
//!   the final bias vector.
//! * [`MarkovChain`] — the chain a positional strategy induces
//!   ([`Mdp::induced_chain`]; §2.3 and Theorem 3.1 of the paper argue about
//!   these chains), and [`iterative_gains`], the long-run average rewards of
//!   a unichain under several reward vectors at once by fused sparse sweeps
//!   over the same row blocks. A strategy's revenue `g_A / (g_A + g_H)` is
//!   two of these gains.
//! * [`run_budgeted_jobs`] — the workspace's one job loop: independent
//!   indexed jobs fanned over a nested [`SolverParallelism`] budget, results
//!   in job order. The sweep engine, the grid runner and the query service
//!   run on it, so the row-block sweeps and the job fan-out are the only
//!   places library code starts threads.
//!
//! Every iterative result is bit-identical for any thread count. The exact
//! solvers the tests cross-check these against (Howard policy iteration and
//! stationary analysis of chains) live in the dev-only
//! `sm-oracle` crate.
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
//! builder.begin_state(); // state 0, the start state
//! builder.add_action(&[(0, 1.0)])?; // action 0: stay
//! builder.add_action(&[(1, 1.0)])?; // action 1: leave
//! builder.begin_state(); // state 1
//! builder.add_action(&[(0, 1.0)])?; // action 0: back
//! let mdp = builder.finish()?;
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

mod chain;
pub mod csr;
mod error;
mod model;
mod parallel;
mod reward;
mod strategy;
mod value_iteration;

pub use chain::MarkovChain;
pub use csr::{compact_index, CsrLayout, CsrMdpBuilder, COMPACT_ARENA_LIMIT};
pub use error::MdpError;
pub use model::Mdp;
pub use parallel::{run_budgeted_jobs, SolverParallelism};
pub use reward::iterative_gains;
pub use strategy::PositionalStrategy;
pub use value_iteration::{RelativeValueIteration, ValueIterationOutcome};

/// Tolerance used when validating transition probability distributions,
/// of the MDP's actions and of the chains its strategies induce.
pub const PROBABILITY_TOLERANCE: f64 = 1e-9;

/// The job loop's tests, run through the crate-root export its callers use.
#[cfg(test)]
mod tests {
    use super::{run_budgeted_jobs, SolverParallelism};

    #[test]
    fn empty_job_lists_are_fine() {
        for budget in [1, 4] {
            assert_eq!(
                run_budgeted_jobs(SolverParallelism::threads(budget), 0, |i, _| i),
                Vec::<usize>::new()
            );
        }
    }

    #[test]
    fn budgeted_jobs_return_in_order_for_any_budget() {
        let reference: Vec<usize> = (0..23).map(|i| i * 3).collect();
        for budget in [1, 2, 8, 64] {
            let parallelism = SolverParallelism::threads(budget);
            assert_eq!(
                run_budgeted_jobs(parallelism, 23, |i, _allowance| i * 3),
                reference,
                "budget = {budget}"
            );
        }
    }

    #[test]
    fn short_queue_allowances_split_the_whole_budget() {
        // 2 jobs on an 8-thread budget: the first claim always sees both
        // jobs unfinished and gets 8 / 2 = 4 threads (the historical pool
        // gave it 1 and idled 6); the second gets 4 too when claimed
        // concurrently, or the full 8 if the first job already retired.
        let budget = SolverParallelism::threads(8);
        let allowances = run_budgeted_jobs(budget, 2, |_i, allowance| allowance.thread_count());
        assert_eq!(allowances[0], 4);
        assert!(
            allowances[1] == 4 || allowances[1] == 8,
            "unexpected allowance {allowances:?}"
        );
        // 1 job gets everything.
        assert_eq!(
            run_budgeted_jobs(budget, 1, |_i, a| a),
            vec![SolverParallelism::threads(8)]
        );
    }

    #[test]
    fn deep_queue_prefers_outer_jobs_and_drains_into_allowances() {
        // With as many jobs as budget, every claim made while the queue is
        // full sees allowance 1; as jobs finish, later claims may see more —
        // but the combined in-flight allowance never exceeds the budget.
        let budget = 4;
        let allowances = run_budgeted_jobs(SolverParallelism::threads(budget), 16, |_i, a| {
            a.thread_count()
        });
        assert!(allowances.iter().all(|&a| (1..=budget).contains(&a)));
        assert!(
            allowances.iter().filter(|&&a| a == 1).count() >= 16 - budget,
            "most claims of a deep queue must prefer outer parallelism: {allowances:?}"
        );
    }

    #[test]
    fn a_panicking_job_panics_the_caller_at_any_budget() {
        for budget in [1, 4] {
            let outcome = std::panic::catch_unwind(|| {
                run_budgeted_jobs(SolverParallelism::threads(budget), 6, |i, _| {
                    assert_ne!(i, 3, "job 3 fails");
                    i
                })
            });
            assert!(outcome.is_err(), "budget = {budget}");
        }
    }
}
