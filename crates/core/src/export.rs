//! Export of computed MDP strategies into the chain simulator's vocabulary.
//!
//! The analysis and the simulator are deliberately independent
//! implementations of the same system model; the bridge between them is the
//! translation of an ε-optimal [`PositionalStrategy`] over MDP state indices
//! into an [`sm_chain::TableStrategy`] over simulator views. That
//! translation used to live in a test helper; [`StrategyExport`] promotes it
//! to a library API so the conformance subsystem, the examples and the tests
//! all share one definition — with an explicit [`UnknownViewPolicy`] instead
//! of the historical silent wait-fallback for views the MDP never reaches.

use crate::{
    Owner, ParametricModel, Phase, SelfishMiningError, SelfishMiningModel, SmAction, SmState,
};
use sm_chain::{AdversaryAction, AdversaryView, MinerClass, TableStrategy, UnknownViewPolicy};
use sm_mdp::PositionalStrategy;

/// Compiles positional MDP strategies into simulator table strategies.
///
/// The translation only depends on the model's *structure* — the discovered
/// states, their action lists and the `(d, f)` shape — never on the
/// instantiated probabilities, so an export handle can be built either from
/// an instantiated model ([`StrategyExport::new`]) or directly from the
/// shared family skeleton ([`StrategyExport::from_family`], no per-`(p, γ)`
/// buffers touched at all); one handle serves every grid point of its
/// family. Restricted-scenario families (see [`crate::AttackScenario`])
/// export the same way: their state/action tables already are the
/// scenario's sub-model, so the compiled table enforces the restriction by
/// construction.
///
/// # Example
///
/// ```
/// use selfish_mining::experiments::CurveTracker;
/// use selfish_mining::{AnalysisConfig, ParametricModel, StrategyExport};
/// use sm_chain::UnknownViewPolicy;
///
/// # fn main() -> Result<(), selfish_mining::SelfishMiningError> {
/// let family = ParametricModel::build(2, 1, 4)?;
/// let mut tracker = CurveTracker::new(&family, 0.5, true, AnalysisConfig::with_epsilon(1e-2));
/// let solve = tracker.advance(0.3)?;
/// let model = tracker.into_arena().expect("advance instantiated the arena");
/// let table = StrategyExport::new(&model).table(&solve.strategy, UnknownViewPolicy::Wait)?;
/// assert!(!table.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StrategyExport<'a> {
    depth: usize,
    forks_per_block: usize,
    max_fork_length: usize,
    states: &'a [SmState],
    actions: &'a [Vec<SmAction>],
}

impl<'a> StrategyExport<'a> {
    /// Creates an exporter over an instantiated model.
    pub fn new(model: &'a SelfishMiningModel) -> Self {
        let params = model.params();
        StrategyExport {
            depth: params.depth,
            forks_per_block: params.forks_per_block,
            max_fork_length: params.max_fork_length,
            states: model.states_slice(),
            actions: model.actions_slice(),
        }
    }

    /// Creates an exporter over a parametric family's shared skeleton — the
    /// same translation as [`StrategyExport::new`] without instantiating any
    /// probability or reward buffers.
    pub fn from_family(family: &'a ParametricModel) -> Self {
        StrategyExport {
            depth: family.depth(),
            forks_per_block: family.forks_per_block(),
            max_fork_length: family.max_fork_length(),
            states: family.states_slice(),
            actions: family.actions_slice(),
        }
    }

    /// Attack depth `d` of the exported family.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Forking number `f` of the exported family.
    pub fn forks_per_block(&self) -> usize {
        self.forks_per_block
    }

    /// Maximal private fork length `l` of the exported family.
    pub fn max_fork_length(&self) -> usize {
        self.max_fork_length
    }

    /// Number of states the exported strategies must cover.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The simulator view corresponding to an MDP state, or `None` for
    /// mining-phase states (the simulator only consults the strategy at
    /// decision points, i.e. right after a block was found).
    ///
    /// # Panics
    ///
    /// Panics if `state_index` is out of bounds.
    pub fn view(&self, state_index: usize) -> Option<AdversaryView> {
        let state = &self.states[state_index];
        if state.phase == Phase::Mining {
            return None;
        }
        let f = self.forks_per_block;
        Some(AdversaryView {
            // The paper's row-major `C[depth, fork]` layout of `SmState`.
            fork_lengths: (0..self.depth)
                .map(|depth| {
                    state.forks[depth * f..(depth + 1) * f]
                        .iter()
                        .map(|&len| len as usize)
                        .collect()
                })
                .collect(),
            owners: (1..self.depth)
                .map(|depth| match state.owner(depth) {
                    Owner::Honest => MinerClass::Honest,
                    Owner::Adversary => MinerClass::Adversary,
                })
                .collect(),
            pending_honest_block: state.phase == Phase::HonestFound,
            just_mined: state.phase == Phase::AdversaryFound,
        })
    }

    /// Compiles `strategy` into a simulator table named `"mdp-optimal"`.
    ///
    /// Every non-mining MDP state contributes one table entry (the state →
    /// view translation is injective, so entries never collide); views the
    /// MDP never reaches are handled by `policy` at simulation time.
    ///
    /// # Errors
    ///
    /// Returns [`SelfishMiningError::InvalidParameter`] if the strategy does
    /// not cover every model state or selects an out-of-range action index.
    pub fn table(
        &self,
        strategy: &PositionalStrategy,
        policy: UnknownViewPolicy,
    ) -> Result<TableStrategy, SelfishMiningError> {
        self.table_named(strategy, policy, "mdp-optimal")
    }

    /// [`StrategyExport::table`] with an explicit strategy name for reports.
    ///
    /// # Errors
    ///
    /// See [`StrategyExport::table`].
    pub fn table_named(
        &self,
        strategy: &PositionalStrategy,
        policy: UnknownViewPolicy,
        name: impl Into<String>,
    ) -> Result<TableStrategy, SelfishMiningError> {
        if strategy.num_states() != self.states.len() {
            return Err(SelfishMiningError::InvalidParameter {
                name: "strategy",
                constraint: "must cover every state of the model it is exported from",
            });
        }
        let mut table = TableStrategy::with_policy(name, policy);
        for state_index in 0..self.states.len() {
            let Some(view) = self.view(state_index) else {
                continue;
            };
            let choice = strategy.action(state_index);
            let Some(action) = self.actions[state_index].get(choice) else {
                return Err(SelfishMiningError::InvalidParameter {
                    name: "strategy",
                    constraint: "selects an action index outside the state's action list",
                });
            };
            let table_action = match action {
                SmAction::Mine => AdversaryAction::Wait,
                SmAction::Release {
                    depth,
                    fork,
                    length,
                } => AdversaryAction::Release {
                    depth: *depth,
                    fork: *fork,
                    length: *length,
                },
            };
            table.insert(view, table_action);
        }
        // Enforce the injectivity invariant instead of assuming it: a view
        // collision would silently overwrite an earlier state's action and
        // certify against a strategy that is not the solver's.
        if table.len() != self.decision_states() {
            return Err(SelfishMiningError::InvalidParameter {
                name: "strategy",
                constraint: "export collided two model states on one simulator view",
            });
        }
        Ok(table)
    }

    /// Number of table entries an export will produce: the model's non-mining
    /// (decision-point) states.
    pub fn decision_states(&self) -> usize {
        self.states
            .iter()
            .filter(|state| state.phase != Phase::Mining)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::CurveTracker;
    use crate::{AnalysisConfig, ParametricModel};

    fn model() -> SelfishMiningModel {
        ParametricModel::build(2, 1, 3)
            .unwrap()
            .instantiate(0.3, 0.5)
            .unwrap()
    }

    #[test]
    fn export_covers_every_decision_state_exactly_once() {
        let model = model();
        let export = StrategyExport::new(&model);
        let strategy = sm_mdp::PositionalStrategy::uniform_first_action(model.num_states());
        let table = export
            .table(&strategy, UnknownViewPolicy::Wait)
            .expect("export succeeds");
        assert_eq!(table.len(), export.decision_states());
        assert!(!table.is_empty());
        // Mining states produce no view; decision states always do.
        for s in 0..model.num_states() {
            assert_eq!(
                export.view(s).is_some(),
                model.state(s).phase != Phase::Mining
            );
        }
    }

    #[test]
    fn export_rejects_misshapen_strategies() {
        let model = model();
        let export = StrategyExport::new(&model);
        let short = sm_mdp::PositionalStrategy::uniform_first_action(model.num_states() - 1);
        assert!(matches!(
            export.table(&short, UnknownViewPolicy::Wait),
            Err(SelfishMiningError::InvalidParameter {
                name: "strategy",
                ..
            })
        ));
        let mut out_of_range = sm_mdp::PositionalStrategy::uniform_first_action(model.num_states());
        let decision_state = (0..model.num_states())
            .find(|&s| model.state(s).phase != Phase::Mining)
            .expect("model has decision states");
        out_of_range.set_action(decision_state, 999);
        assert!(matches!(
            export.table(&out_of_range, UnknownViewPolicy::Wait),
            Err(SelfishMiningError::InvalidParameter {
                name: "strategy",
                ..
            })
        ));
    }

    #[test]
    fn optimal_export_contains_releases() {
        let family = ParametricModel::build(2, 1, 3).unwrap();
        let mut tracker = CurveTracker::new(&family, 0.5, true, AnalysisConfig::with_epsilon(1e-2));
        let solve = tracker.advance(0.3).unwrap();
        let model = tracker.into_arena().unwrap();
        let table = StrategyExport::new(&model)
            .table_named(&solve.strategy, UnknownViewPolicy::Panic, "optimal")
            .unwrap();
        assert_eq!(sm_chain::AdversaryStrategy::name(&table), "optimal");
        assert_eq!(table.policy(), UnknownViewPolicy::Panic);
        assert!(!table.is_empty());
    }
}
