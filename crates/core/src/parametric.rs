//! The parameterized transition arena: explore a `(d, f, l)` topology once,
//! instantiate it for any `(p, γ)` in one linear pass.
//!
//! The reachable state space, the action lists and the whole CSR skeleton
//! (`row_ptr` / `action_ptr` / `col`) of the selfish-mining MDP depend only
//! on the structural parameters `(d, f, l)` — the numeric parameters `(p, γ)`
//! only scale transition probabilities and, through them, the expected
//! per-action block counts. [`ParametricModel`] exploits that: the
//! breadth-first exploration runs once over the *symbolic* transition
//! function ([`crate::symbolic_successors_in`]) and records, per arena
//! transition, a small list of [`ProbTerm`] atoms;
//! [`ParametricModel::instantiate`] then evaluates the atoms at concrete
//! `(p, γ)` and fills the probability buffer and the per-pair reward tables
//! with no hashing and no BFS. The initial state is discovered first, so it
//! is arena state 0, the MDP's start state. Actions are kept as the
//! structured [`SmAction`] lists, one per state and indexed by the same
//! (state, ordinal) pairs as the arena; the arena itself carries no action
//! labels. Re-instantiating an existing model in place
//! ([`ParametricModel::instantiate_into`]) performs zero allocations beyond
//! the buffers already held by the model.
//!
//! Masked branches are kept *structurally*: at `γ = 0` the race-win outcome
//! of a tie release still occupies its arena slot with probability 0 (and
//! likewise the adversary split at `p = 0`), so one layout serves the entire
//! parameter square. The induced-chain extraction and the recurrence
//! classification ignore zero-probability entries.
//!
//! This is the workspace's only selfish-mining BFS. Its discovery order and
//! successor sorting are those of a direct BFS over
//! [`crate::successors_in`] streamed into [`sm_mdp::CsrMdpBuilder`], which
//! `tests/parametric_equivalence.rs` keeps as a test oracle: an interior
//! instantiation reproduces that pruned arena bit for bit, and at the masked
//! edges the two agree on every solver result.

use crate::{
    available_actions_in, symbolic_successors_in, AttackParams, AttackScenario, ProbTerm,
    SelfishMiningError, SelfishMiningModel, SmAction, SmState,
};
use sm_mdp::{compact_index, CsrLayout, Mdp};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

/// Default cap on the number of reachable states the breadth-first
/// exploration will enumerate before giving up. The largest configuration
/// evaluated in the paper (`d = 4`, `f = 2`, `l = 4`) stays below ten million
/// states.
pub const DEFAULT_STATE_LIMIT: usize = 12_000_000;

/// One *distinct* symbolic outcome: its probability term (as an id into the
/// interned term pool) and the block counts it finalizes. The per-pair atom
/// buffer stores `u32` ids into a pool of these — a `(d, f, l)` topology only
/// ever produces a handful of distinct outcomes, so the per-transition
/// working set shrinks to one small integer per atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RewardAtom {
    /// Id of the probability term in the interned term pool.
    pub term: u32,
    /// Adversarial blocks finalized by the outcome.
    pub adversary: u32,
    /// Honest blocks finalized by the outcome.
    pub honest: u32,
}

/// Interns `value` into `pool`, returning its stable `u32` id.
fn intern<T: Copy + Eq + Hash>(pool: &mut Vec<T>, ids: &mut HashMap<T, u32>, value: T) -> u32 {
    *ids.entry(value).or_insert_with(|| {
        let id = u32::try_from(pool.len()).expect("pool size fits u32");
        pool.push(value);
        id
    })
}

/// The `(d, f, l)` family of selfish-mining MDPs: one shared CSR skeleton
/// plus symbolic probability/reward terms, instantiable at any `(p, γ)`.
///
/// # Example
///
/// ```
/// use selfish_mining::ParametricModel;
///
/// # fn main() -> Result<(), selfish_mining::SelfishMiningError> {
/// let family = ParametricModel::build(2, 1, 4)?;
/// let a = family.instantiate(0.30, 0.5)?;
/// let mut b = family.instantiate(0.10, 0.0)?;
/// assert_eq!(a.num_states(), b.num_states()); // same skeleton
/// family.instantiate_into(&mut b, 0.25, 1.0)?; // refill in place, no rebuild
/// assert_eq!(b.params().p, 0.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ParametricModel {
    depth: usize,
    forks_per_block: usize,
    max_fork_length: usize,
    scenario: AttackScenario,
    states: Arc<Vec<SmState>>,
    actions: Arc<Vec<Vec<SmAction>>>,
    layout: Arc<CsrLayout>,
    /// Per arena transition, the range of its probability atoms in
    /// `prob_atoms` (duplicate successors of one action merge into one slot
    /// whose probability is the sum of the merged atoms). Length
    /// `num_transitions + 1`.
    prob_atom_ptr: Vec<u32>,
    /// Probability atom ids (into `term_pool`) in arena (successor-sorted)
    /// order.
    prob_atoms: Vec<u32>,
    /// Per state-action pair, the range of its outcomes in `reward_atoms`.
    /// Length `num_pairs + 1`.
    reward_ptr: Vec<u32>,
    /// Outcome atom ids (into `atom_pool`) in discovery order, for the
    /// expected-reward sums.
    reward_atoms: Vec<u32>,
    /// Distinct probability terms of the topology, in first-seen order.
    /// Instantiation evaluates each term once into a table and the linear
    /// fill pass only gathers from it.
    term_pool: Vec<ProbTerm>,
    /// Distinct symbolic outcomes of the topology, in first-seen order.
    atom_pool: Vec<RewardAtom>,
}

impl ParametricModel {
    /// Explores the `(depth, forks_per_block, max_fork_length)` topology of
    /// the unrestricted attack ([`AttackScenario::Optimal`]).
    ///
    /// # Errors
    ///
    /// Returns [`SelfishMiningError::InvalidParameter`] for zero structural
    /// parameters and [`SelfishMiningError::StateSpaceTooLarge`] if the
    /// reachable state space exceeds [`DEFAULT_STATE_LIMIT`].
    pub fn build(
        depth: usize,
        forks_per_block: usize,
        max_fork_length: usize,
    ) -> Result<Self, SelfishMiningError> {
        Self::build_scenario(
            AttackScenario::Optimal,
            depth,
            forks_per_block,
            max_fork_length,
        )
    }

    /// Explores the topology of a restricted attack scenario: the symbolic
    /// BFS runs over the scenario's admissible actions and filtered mining
    /// split, so the shared skeleton *is* the scenario's sub-arena.
    /// [`AttackScenario::Optimal`] reproduces [`ParametricModel::build`]
    /// exactly.
    ///
    /// # Example
    ///
    /// ```
    /// use selfish_mining::{AttackScenario, ParametricModel};
    ///
    /// # fn main() -> Result<(), selfish_mining::SelfishMiningError> {
    /// let optimal = ParametricModel::build(2, 1, 4)?;
    /// let stubborn =
    ///     ParametricModel::build_scenario(AttackScenario::LeadStubborn, 2, 1, 4)?;
    /// assert!(stubborn.num_pairs() < optimal.num_pairs());
    /// assert_eq!(stubborn.scenario(), AttackScenario::LeadStubborn);
    /// let model = stubborn.instantiate(0.3, 0.5)?;
    /// assert_eq!(model.scenario(), AttackScenario::LeadStubborn);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// See [`ParametricModel::build`].
    pub fn build_scenario(
        scenario: AttackScenario,
        depth: usize,
        forks_per_block: usize,
        max_fork_length: usize,
    ) -> Result<Self, SelfishMiningError> {
        Self::build_scenario_with_limit(
            scenario,
            depth,
            forks_per_block,
            max_fork_length,
            DEFAULT_STATE_LIMIT,
        )
    }

    /// [`ParametricModel::build_scenario`] with an explicit state-space
    /// limit.
    fn build_scenario_with_limit(
        scenario: AttackScenario,
        depth: usize,
        forks_per_block: usize,
        max_fork_length: usize,
        state_limit: usize,
    ) -> Result<Self, SelfishMiningError> {
        // The symbolic transition function reads only the structural fields;
        // interior placeholders make the parameter set pass validation.
        let params = AttackParams::new(0.5, 0.5, depth, forks_per_block, max_fork_length)?;
        let initial = SmState::initial(&params);

        let mut index_of: HashMap<SmState, usize> = HashMap::new();
        let mut states: Vec<SmState> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        index_of.insert(initial.clone(), 0);
        states.push(initial);
        queue.push_back(0);

        // Discovery order and successor sorting are those of the direct BFS
        // oracle in `tests/parametric_equivalence.rs`, so that an interior
        // instantiation reproduces its arena bit for bit.
        let mut row_ptr: Vec<u32> = vec![0];
        let mut action_ptr: Vec<u32> = vec![0];
        let mut col: Vec<u32> = Vec::new();
        let mut prob_atom_ptr: Vec<u32> = Vec::new();
        let mut prob_atoms: Vec<u32> = Vec::new();
        let mut reward_ptr: Vec<u32> = vec![0];
        let mut reward_atoms: Vec<u32> = Vec::new();
        let mut term_pool: Vec<ProbTerm> = Vec::new();
        let mut term_ids: HashMap<ProbTerm, u32> = HashMap::new();
        let mut atom_pool: Vec<RewardAtom> = Vec::new();
        let mut atom_ids: HashMap<RewardAtom, u32> = HashMap::new();
        let mut actions: Vec<Vec<SmAction>> = Vec::new();
        let mut scratch: Vec<(u32, u32)> = Vec::new();

        while let Some(index) = queue.pop_front() {
            let state = states[index].clone();
            let state_actions = available_actions_in(&scenario, &params, &state);
            for action in &state_actions {
                let outcomes = symbolic_successors_in(&scenario, &params, &state, action)?;
                scratch.clear();
                for outcome in outcomes {
                    let target = match index_of.get(&outcome.state) {
                        Some(&existing) => existing,
                        None => {
                            let new_index = states.len();
                            if new_index >= state_limit {
                                return Err(SelfishMiningError::StateSpaceTooLarge {
                                    discovered: new_index + 1,
                                    limit: state_limit,
                                });
                            }
                            index_of.insert(outcome.state.clone(), new_index);
                            states.push(outcome.state);
                            queue.push_back(new_index);
                            new_index
                        }
                    };
                    let term_id = intern(&mut term_pool, &mut term_ids, outcome.term);
                    let atom = RewardAtom {
                        term: term_id,
                        adversary: outcome.rewards.adversary,
                        honest: outcome.rewards.honest,
                    };
                    reward_atoms.push(intern(&mut atom_pool, &mut atom_ids, atom));
                    scratch.push((compact_index(target)?, term_id));
                }
                reward_ptr.push(u32::try_from(reward_atoms.len()).expect("atom count fits u32"));

                // Arena row: successors sorted, duplicates merged into one
                // slot whose probability is the (ordered) sum of its atoms.
                scratch.sort_by_key(|&(target, _)| target);
                let action_start = col.len();
                for &(target, term_id) in &scratch {
                    if col.len() == action_start || *col.last().expect("non-empty row") != target {
                        col.push(target);
                        prob_atom_ptr
                            .push(u32::try_from(prob_atoms.len()).expect("atom count fits u32"));
                    }
                    prob_atoms.push(term_id);
                }
                action_ptr.push(compact_index(col.len())?);
            }
            actions.push(state_actions);
            row_ptr.push(compact_index(action_ptr.len() - 1)?);
        }
        prob_atom_ptr.push(u32::try_from(prob_atoms.len()).expect("atom count fits u32"));

        let layout = CsrLayout::from_raw_parts(row_ptr, action_ptr, col)?;
        Ok(ParametricModel {
            depth,
            forks_per_block,
            max_fork_length,
            scenario,
            states: Arc::new(states),
            actions: Arc::new(actions),
            layout: Arc::new(layout),
            prob_atom_ptr,
            prob_atoms,
            reward_ptr,
            reward_atoms,
            term_pool,
            atom_pool,
        })
    }

    /// Attack depth `d` of the family.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Forking number `f` of the family.
    pub fn forks_per_block(&self) -> usize {
        self.forks_per_block
    }

    /// Maximal private fork length `l` of the family.
    pub fn max_fork_length(&self) -> usize {
        self.max_fork_length
    }

    /// The attack scenario the family was explored for
    /// ([`AttackScenario::Optimal`] for [`ParametricModel::build`]).
    pub fn scenario(&self) -> AttackScenario {
        self.scenario
    }

    /// Number of reachable states of the (parameter-independent) topology.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of state-action pairs of the shared arena.
    pub fn num_pairs(&self) -> usize {
        self.layout.num_pairs()
    }

    /// Number of transitions of the shared arena.
    pub fn num_transitions(&self) -> usize {
        self.layout.num_transitions()
    }

    /// The structured state at a given index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn state(&self, index: usize) -> &SmState {
        &self.states[index]
    }

    /// The action list of a state, in the arena's action-index order.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn actions_of(&self, state: usize) -> &[SmAction] {
        &self.actions[state]
    }

    /// The full structured state table, in arena index order.
    pub(crate) fn states_slice(&self) -> &[SmState] {
        &self.states
    }

    /// The full per-state action table, in arena index order.
    pub(crate) fn actions_slice(&self) -> &[Vec<SmAction>] {
        &self.actions
    }

    /// Instantiates the family at `(p, gamma)`: one linear pass filling a
    /// fresh probability buffer and the two per-pair reward tables over the
    /// shared skeleton (the layout is shared, not copied).
    ///
    /// # Errors
    ///
    /// Returns [`SelfishMiningError::InvalidParameter`] if `p` or `gamma` lie
    /// outside `[0, 1]`.
    pub fn instantiate(
        &self,
        p: f64,
        gamma: f64,
    ) -> Result<SelfishMiningModel, SelfishMiningError> {
        let params = AttackParams::new(
            p,
            gamma,
            self.depth,
            self.forks_per_block,
            self.max_fork_length,
        )?;
        let term_values = self.term_values(p, gamma);
        let mut prob = vec![0.0; self.layout.num_transitions()];
        for (slot, value) in prob.iter_mut().enumerate() {
            *value = self.slot_probability(slot, &term_values);
        }
        let mdp = Mdp::from_raw_parts(Arc::clone(&self.layout), prob)?;
        let (adversary_rewards, honest_rewards) = (0..self.layout.num_pairs())
            .map(|pair| self.pair_rewards(pair, &term_values))
            .unzip();

        Ok(SelfishMiningModel {
            params,
            scenario: self.scenario,
            mdp,
            states: Arc::clone(&self.states),
            actions: Arc::clone(&self.actions),
            adversary_rewards,
            honest_rewards,
        })
    }

    /// Re-instantiates an existing model of this family at new `(p, gamma)`
    /// values *in place*: the probability buffer is rewritten through
    /// [`sm_mdp::Mdp::reweight_in_place`] and the per-pair reward tables are
    /// refilled, with no hashing, no BFS and no allocation beyond one
    /// term-value table the size of the (tiny) interned term pool. This is
    /// the per-worker hot path of the sweep engine.
    ///
    /// # Errors
    ///
    /// Returns [`SelfishMiningError::InvalidParameter`] for out-of-range
    /// `p` / `gamma`, and for a `model` that was not produced by this family
    /// (its arena must share this family's layout); the latter names the
    /// parameter `"model"`.
    pub fn instantiate_into(
        &self,
        model: &mut SelfishMiningModel,
        p: f64,
        gamma: f64,
    ) -> Result<(), SelfishMiningError> {
        let params = AttackParams::new(
            p,
            gamma,
            self.depth,
            self.forks_per_block,
            self.max_fork_length,
        )?;
        if !Arc::ptr_eq(&model.mdp.layout_arc(), &self.layout) {
            return Err(SelfishMiningError::InvalidParameter {
                name: "model",
                constraint: "must be instantiated from this parametric family",
            });
        }
        model.params = params;
        model.scenario = self.scenario;
        let term_values = self.term_values(p, gamma);
        model
            .mdp
            .reweight_in_place(|slot| self.slot_probability(slot, &term_values));
        // Per-pair expected block counts, exactly as the fresh construction
        // computes them; one atom walk per pair fills both reward tables.
        for (pair, (adversary, honest)) in model
            .adversary_rewards
            .iter_mut()
            .zip(&mut model.honest_rewards)
            .enumerate()
        {
            (*adversary, *honest) = self.pair_rewards(pair, &term_values);
        }
        // `reweight_in_place` already re-validated the arena under
        // deep-checks; this additionally covers the reward tables.
        #[cfg(feature = "deep-checks")]
        debug_assert!(
            model
                .adversary_rewards
                .iter()
                .chain(&model.honest_rewards)
                .all(|r| r.is_finite() && *r >= 0.0),
            "deep-checks: re-instantiation produced an invalid reward table"
        );
        Ok(())
    }

    /// Resident bytes of the symbolic term tables: the per-transition and
    /// per-pair id buffers plus the interned pools. This is the part of the
    /// family's footprint that scales with the arena (the state and action
    /// tables are reported separately by callers that hold them).
    pub fn term_table_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.prob_atom_ptr.len()
            + self.prob_atoms.len()
            + self.reward_ptr.len()
            + self.reward_atoms.len())
            * size_of::<u32>()
            + self.term_pool.len() * size_of::<ProbTerm>()
            + self.atom_pool.len() * size_of::<RewardAtom>()
    }

    /// Resident bytes of the shared CSR skeleton (`row_ptr` / `action_ptr` /
    /// `col`, all `u32`).
    pub fn layout_bytes(&self) -> usize {
        self.layout.resident_bytes()
    }

    /// Number of distinct probability terms of the topology (the interned
    /// term-pool size — a handful, independent of the arena size).
    pub fn distinct_terms(&self) -> usize {
        self.term_pool.len()
    }

    /// Number of distinct symbolic outcomes of the topology (the interned
    /// outcome-pool size).
    pub fn distinct_outcomes(&self) -> usize {
        self.atom_pool.len()
    }

    /// Read-only view of the interned probability-term pool, in stable
    /// first-seen order. The ids in [`Self::prob_atoms`] and the `term`
    /// fields of [`Self::atom_pool`] index into this slice. Exposed for
    /// external static analysis (the `sm-audit` crate) — the solver paths
    /// never need it.
    pub fn term_pool(&self) -> &[ProbTerm] {
        &self.term_pool
    }

    /// Read-only view of the interned outcome pool, in stable first-seen
    /// order. The ids in [`Self::reward_atoms`] index into this slice.
    pub fn atom_pool(&self) -> &[RewardAtom] {
        &self.atom_pool
    }

    /// Per arena transition, the offset of its probability atoms in
    /// [`Self::prob_atoms`]; length [`Self::num_transitions`]` + 1`,
    /// monotone non-decreasing.
    pub fn prob_atom_ptr(&self) -> &[u32] {
        &self.prob_atom_ptr
    }

    /// Probability-atom term ids (into [`Self::term_pool`]) in arena order.
    pub fn prob_atoms(&self) -> &[u32] {
        &self.prob_atoms
    }

    /// Per state-action pair, the offset of its outcomes in
    /// [`Self::reward_atoms`]; length [`Self::num_pairs`]` + 1`, monotone
    /// non-decreasing.
    pub fn reward_ptr(&self) -> &[u32] {
        &self.reward_ptr
    }

    /// Outcome-atom ids (into [`Self::atom_pool`]) in discovery order.
    pub fn reward_atoms(&self) -> &[u32] {
        &self.reward_atoms
    }

    /// Evaluates every pooled term once at `(p, gamma)`. The fill passes
    /// gather from this table by id, so each term's floating-point value is
    /// computed exactly once per instantiation — and is bit-identical to
    /// evaluating the term at every use site, which is what keeps an interior
    /// instantiation reproducing the direct BFS oracle bit for bit.
    #[inline]
    fn term_values(&self, p: f64, gamma: f64) -> Vec<f64> {
        self.term_pool.iter().map(|t| t.eval(p, gamma)).collect()
    }

    /// Probability of arena transition `slot`: the ordered sum of its atoms'
    /// term values (one atom per merged duplicate successor, summed in the
    /// same order the streaming builder merges them).
    #[inline]
    fn slot_probability(&self, slot: usize, term_values: &[f64]) -> f64 {
        let range = self.prob_atom_ptr[slot] as usize..self.prob_atom_ptr[slot + 1] as usize;
        self.prob_atoms[range]
            .iter()
            .fold(0.0, |acc, &id| acc + term_values[id as usize])
    }

    /// Expected `(adversary, honest)` block counts of state-action pair
    /// `pair`, accumulated over the outcomes in discovery order — the same
    /// order (and therefore the same floating-point result) as the direct
    /// BFS oracle.
    #[inline]
    fn pair_rewards(&self, pair: usize, term_values: &[f64]) -> (f64, f64) {
        let range = self.reward_ptr[pair] as usize..self.reward_ptr[pair + 1] as usize;
        let mut adversary = 0.0;
        let mut honest = 0.0;
        for &id in &self.reward_atoms[range] {
            let atom = self.atom_pool[id as usize];
            let probability = term_values[atom.term as usize];
            adversary += probability * f64::from(atom.adversary);
            honest += probability * f64::from(atom.honest);
        }
        (adversary, honest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    #[test]
    fn masked_branches_are_kept_structurally() {
        let family = ParametricModel::build(1, 1, 2).unwrap();
        let masked = family.instantiate(0.3, 0.0).unwrap();
        let interior = family.instantiate(0.3, 0.5).unwrap();
        // At γ = 0 the race-win branch has probability 0, but the parametric
        // arena keeps it — so the masked model shares the interior skeleton
        // and still validates.
        assert_eq!(masked.num_states(), interior.num_states());
        assert_eq!(masked.mdp().layout(), interior.mdp().layout());
        masked.mdp().validate().unwrap();
        assert!(masked.mdp().probabilities().contains(&0.0));
    }

    #[test]
    fn instantiate_into_matches_direct_instantiation() {
        let family = ParametricModel::build(2, 2, 3).unwrap();
        let mut reused = family.instantiate(0.4, 0.25).unwrap();
        for &(p, gamma) in &[(0.2, 0.75), (0.0, 0.5), (0.3, 0.0), (0.35, 1.0)] {
            family.instantiate_into(&mut reused, p, gamma).unwrap();
            let direct = family.instantiate(p, gamma).unwrap();
            assert_eq!(reused.mdp(), direct.mdp());
            assert_eq!(reused.adversary_rewards(), direct.adversary_rewards());
            assert_eq!(reused.honest_rewards(), direct.honest_rewards());
            assert_eq!(reused.params(), direct.params());
        }
    }

    #[test]
    fn instantiate_into_rejects_foreign_models() {
        let family = ParametricModel::build(1, 1, 2).unwrap();
        // A second family of the same topology and one of another topology:
        // both are foreign, whatever their shape.
        for other in [
            ParametricModel::build(1, 1, 2).unwrap(),
            ParametricModel::build(2, 1, 4).unwrap(),
        ] {
            let mut model = other.instantiate(0.3, 0.5).unwrap();
            assert!(matches!(
                family.instantiate_into(&mut model, 0.3, 0.5),
                Err(SelfishMiningError::InvalidParameter { name: "model", .. })
            ));
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(ParametricModel::build(0, 1, 2).is_err());
        let family = ParametricModel::build(1, 1, 2).unwrap();
        assert!(family.instantiate(1.5, 0.5).is_err());
        assert!(family.instantiate(0.5, -0.1).is_err());
    }

    #[test]
    fn a_fork_limit_beyond_a_byte_is_rejected() {
        // Fork lengths are stored as `u8`: l = 256 used to cap every fork at
        // 0 and build a different model without an error.
        assert!(ParametricModel::build(1, 1, 255).is_ok());
        for l in [256, 300] {
            assert!(matches!(
                ParametricModel::build(1, 1, l),
                Err(SelfishMiningError::InvalidParameter {
                    name: "max_fork_length",
                    ..
                })
            ));
        }
    }

    #[test]
    fn state_limit_is_enforced() {
        assert!(matches!(
            ParametricModel::build_scenario_with_limit(AttackScenario::Optimal, 2, 2, 4, 10),
            Err(SelfishMiningError::StateSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn trail_stubborn_with_full_lag_is_the_optimal_arena() {
        let optimal = ParametricModel::build(2, 1, 3).unwrap();
        let full_lag =
            ParametricModel::build_scenario(AttackScenario::TrailStubborn { lag: 1 }, 2, 1, 3)
                .unwrap();
        assert_eq!(optimal.num_states(), full_lag.num_states());
        assert_eq!(optimal.num_pairs(), full_lag.num_pairs());
        let a = optimal.instantiate(0.3, 0.25).unwrap();
        let b = full_lag.instantiate(0.3, 0.25).unwrap();
        assert_eq!(a.mdp(), b.mdp());
    }

    #[test]
    fn term_pools_are_interned_and_tiny() {
        let family = ParametricModel::build(2, 2, 3).unwrap();
        // The whole topology is generated by five term shapes over a bounded
        // slot count, so the pools stay minuscule however large the arena is.
        assert!(family.distinct_terms() <= 16, "{}", family.distinct_terms());
        assert!(
            family.distinct_outcomes() < family.num_transitions() / 10,
            "{} outcomes vs {} transitions",
            family.distinct_outcomes(),
            family.num_transitions()
        );
        // The id buffers cost 4 bytes per atom; the pools are a rounding
        // error on top.
        let atoms = family.prob_atoms.len() + family.reward_atoms.len();
        let ptrs = family.prob_atom_ptr.len() + family.reward_ptr.len();
        let pools = family.term_pool.len() * std::mem::size_of::<ProbTerm>()
            + family.atom_pool.len() * std::mem::size_of::<RewardAtom>();
        assert_eq!(family.term_table_bytes(), (atoms + ptrs) * 4 + pools);
        assert!(family.layout_bytes() > 0);
    }

    #[test]
    fn topology_reaches_every_phase() {
        let family = ParametricModel::build(2, 1, 3).unwrap();
        let mut phases = std::collections::HashSet::new();
        for s in 0..family.num_states() {
            phases.insert(family.state(s).phase);
        }
        assert_eq!(phases.len(), 3);
        assert!(phases.contains(&Phase::AdversaryFound));
    }
}
