//! Selfish mining in efficient proof systems blockchains: the MDP model and
//! the fully automated analysis of
//! *"Fully Automated Selfish Mining Analysis in Efficient Proof Systems
//! Blockchains"* (Chatterjee, Ebrahimzadeh, Karrabi, Pietrzak, Yeo, Žikelić —
//! PODC 2024).
//!
//! # What this crate provides
//!
//! * [`AttackParams`] — the system-model and attack parameters
//!   `(p, γ, d, f, l)` of Section 3.2.
//! * [`SmState`], [`SmAction`], [`available_actions`], [`successors_in`] — the
//!   structured state space, action space and probabilistic transition
//!   function of the selfish-mining MDP.
//! * [`ParametricModel`] — reachable-state exploration of a `(d, f, l)`
//!   topology, once; [`ParametricModel::instantiate`] turns it into a
//!   [`SelfishMiningModel`], the finite MDP at concrete `(p, γ)` together
//!   with the reward structures `r_A` and `r_H` of Section 3.3.
//! * [`experiments::CurveTracker`] — the certified analysis of Section 3.3:
//!   an `ε`-tight lower bound on the optimal expected relative revenue plus
//!   an `ε`-optimal strategy, one [`experiments::CertifiedSolve`] per point,
//!   computed by Dinkelbach's ratio iteration over the mean-payoff reward
//!   family `r_β` (the paper's Algorithm 1 bisects the same family; both
//!   reach the same `ε`-bracket). Consecutive points of a curve warm-start
//!   from each other; [`experiments::attack_curve`] folds a whole curve.
//! * [`AttackScenario`] — pluggable restricted-action attack scenarios
//!   (the stubborn-mining family plus an honest sanity scenario) carried
//!   end-to-end through the solve → export → simulate → certify pipeline.
//! * [`baselines`] — the two baselines of the experimental evaluation
//!   (honest mining and the single-tree selfish-mining attack) and the
//!   Eyal–Sirer proof-of-work closed form used as a sanity anchor.
//! * [`experiments`] — drivers that regenerate the data behind Table 1 and
//!   Figure 2 of the paper.
//!
//! # Quickstart
//!
//! ```
//! use selfish_mining::experiments::CurveTracker;
//! use selfish_mining::{AnalysisConfig, ParametricModel};
//!
//! # fn main() -> Result<(), selfish_mining::SelfishMiningError> {
//! // d = 2, f = 1, l = 4 — the smallest configuration in which the attack
//! // beats both baselines in the paper — at p = 0.3, γ = 0.5.
//! let family = ParametricModel::build(2, 1, 4)?;
//! let config = AnalysisConfig::with_epsilon(1e-2);
//! let solve = CurveTracker::new(&family, 0.5, true, config).advance(0.3)?;
//! assert!(solve.beta_low <= solve.strategy_revenue && solve.strategy_revenue <= solve.beta_up);
//! assert!(solve.strategy_revenue >= 0.3); // at least the honest share
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod analysis;
pub mod baselines;
mod error;
pub mod experiments;
mod export;
mod model;
mod parametric;
mod params;
mod scenario;
mod state;
mod transition;

pub use action::SmAction;
pub use analysis::{AnalysisConfig, SolveStep};
pub use error::SelfishMiningError;
pub use export::StrategyExport;
pub use model::SelfishMiningModel;
pub use parametric::{ParametricModel, RewardAtom, DEFAULT_STATE_LIMIT};
pub use params::{validate_epsilon, validate_share, AttackParams};
pub use scenario::{AttackScenario, CertificateScope};
pub use state::{Owner, Phase, SmState};

// The consensus-backend axis, re-exported from the chain layer so crates
// above the model (sweep, service) reach it without a direct `sm-chain`
// dependency — the same role the `AttackScenario` re-export plays for the
// scenario axis.
pub use sm_chain::{ChallengeVisibility, ConsensusBackend};

// The thread substrate, shared across the solver stack: the intra-solve
// parallelism knob (`sm-mdp` value iteration and chain sweeps, the analysis
// procedure here) and the nested-budget job loop of the sweep engine, the
// grid runner and the query service.
pub use sm_mdp::{run_budgeted_jobs, SolverParallelism};
pub use transition::{
    available_actions, available_actions_in, successors_in, symbolic_successors_in, BlockRewards,
    Outcome, ProbTerm, SymbolicOutcome,
};
