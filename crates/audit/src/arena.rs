//! Whole-arena invariant analysis: statically proves an `Mdp` arena, its
//! reward tables, a `ParametricModel`'s term tables, or a scenario
//! restriction well-formed — without solving anything. Each function returns
//! the list of violations it found (empty = pass), each naming the exact
//! location.

use selfish_mining::{ParametricModel, SelfishMiningModel, SmState};
use sm_mdp::{Mdp, PROBABILITY_TOLERANCE};
use std::collections::{HashMap, HashSet};

/// Checks the CSR arena invariants of one instantiated MDP:
///
/// * `row_ptr` starts at 0, is strictly increasing (every state has at
///   least one action) and ends at `num_pairs`;
/// * `action_ptr` starts at 0, is strictly increasing (every pair has at
///   least one transition) and ends at `num_transitions`;
/// * successor columns are in-bounds and strictly increasing within each
///   pair (sorted, duplicates merged — the convention the induced-chain
///   extraction relies on);
/// * probabilities are finite, non-negative, at most 1, and each pair's
///   mass is within [`PROBABILITY_TOLERANCE`] of 1. Zero-probability
///   entries are legal (parametric arenas keep masked branches
///   structurally);
/// * the initial state is in range.
pub fn audit_mdp(mdp: &Mdp) -> Vec<String> {
    let mut violations = Vec::new();
    let layout = mdp.layout();
    let row_ptr = layout.row_ptr();
    let action_ptr = layout.action_ptr();
    let col = layout.col();
    let prob = mdp.probabilities();
    let n = mdp.num_states();
    let num_pairs = layout.num_pairs();
    let num_transitions = layout.num_transitions();

    if mdp.initial_state() >= n {
        violations.push(format!(
            "initial state {} out of range ({} states)",
            mdp.initial_state(),
            n
        ));
    }
    if row_ptr.len() != n + 1 {
        violations.push(format!(
            "row_ptr has {} entries for {} states",
            row_ptr.len(),
            n
        ));
        return violations;
    }
    if action_ptr.len() != num_pairs + 1 {
        violations.push(format!(
            "action_ptr has {} entries for {} pairs",
            action_ptr.len(),
            num_pairs
        ));
        return violations;
    }
    if col.len() != num_transitions || prob.len() != num_transitions {
        violations.push(format!(
            "col/prob have {}/{} entries for {} transitions",
            col.len(),
            prob.len(),
            num_transitions
        ));
        return violations;
    }
    if row_ptr.first() != Some(&0) || row_ptr.last().map(|&e| e as usize) != Some(num_pairs) {
        violations.push("row_ptr does not span [0, num_pairs]".to_string());
    }
    if action_ptr.first() != Some(&0)
        || action_ptr.last().map(|&e| e as usize) != Some(num_transitions)
    {
        violations.push("action_ptr does not span [0, num_transitions]".to_string());
    }
    for (s, window) in row_ptr.windows(2).enumerate() {
        if window[1] <= window[0] {
            violations.push(format!(
                "row_ptr not strictly increasing at state {s} ({} -> {}): deadlock or corruption",
                window[0], window[1]
            ));
        }
    }
    for (pair, window) in action_ptr.windows(2).enumerate() {
        if window[1] <= window[0] {
            violations.push(format!(
                "action_ptr not strictly increasing at pair {pair} ({} -> {})",
                window[0], window[1]
            ));
        }
    }
    if !violations.is_empty() {
        // Monotonicity is broken; the per-pair walks below would misindex.
        return violations;
    }
    for pair in 0..num_pairs {
        let range = layout.transition_range(pair);
        let cols = &col[range.clone()];
        let probs = &prob[range];
        let mut mass = 0.0;
        for (offset, (&target, &weight)) in cols.iter().zip(probs).enumerate() {
            if (target as usize) >= n {
                violations.push(format!(
                    "pair {pair} transition {offset}: successor {target} out of range"
                ));
            }
            if offset > 0 && cols[offset - 1] >= target {
                violations.push(format!(
                    "pair {pair}: successors not strictly increasing at offset {offset}"
                ));
            }
            if !weight.is_finite() || !(0.0..=1.0 + PROBABILITY_TOLERANCE).contains(&weight) {
                violations.push(format!(
                    "pair {pair} transition {offset}: invalid probability {weight}"
                ));
            }
            mass += weight;
        }
        if (mass - 1.0).abs() > PROBABILITY_TOLERANCE {
            violations.push(format!("pair {pair}: probability mass {mass}"));
        }
    }
    violations
}

/// Checks one per-pair reward table against an arena: one entry per
/// state-action pair, every entry finite and non-negative (expected block
/// counts can never be negative in this model). `label` prefixes the
/// violations (`"adversary"` / `"honest"`).
pub fn audit_rewards(mdp: &Mdp, rewards: &[f64], label: &str) -> Vec<String> {
    let mut violations = Vec::new();
    if rewards.len() != mdp.num_pairs() {
        violations.push(format!(
            "{label}: {} reward entries for {} pairs",
            rewards.len(),
            mdp.num_pairs()
        ));
        return violations;
    }
    for (pair, &value) in rewards.iter().enumerate() {
        if !value.is_finite() || value < 0.0 {
            violations.push(format!("{label}: invalid reward {value} at pair {pair}"));
        }
    }
    violations
}

/// Checks a full instantiated selfish-mining model: the arena invariants
/// ([`audit_mdp`]), both reward tables ([`audit_rewards`]) and the
/// state/action table consistency (one state record and one action list of
/// the right length per arena row).
pub fn audit_model(model: &SelfishMiningModel) -> Vec<String> {
    let mdp = model.mdp();
    let mut violations = audit_mdp(mdp);
    violations.extend(audit_rewards(mdp, model.adversary_rewards(), "adversary"));
    violations.extend(audit_rewards(mdp, model.honest_rewards(), "honest"));
    if model.num_states() != mdp.num_states() {
        violations.push(format!(
            "state table has {} entries for {} arena rows",
            model.num_states(),
            mdp.num_states()
        ));
    } else {
        for s in 0..model.num_states() {
            if model.actions_of(s).len() != mdp.num_actions(s) {
                violations.push(format!(
                    "state {s}: {} action records for {} arena actions",
                    model.actions_of(s).len(),
                    mdp.num_actions(s)
                ));
            }
        }
    }
    violations
}

/// Checks a parametric family's symbolic term tables: offset arrays are
/// monotone and span their id buffers, every probability-atom id points
/// into the term pool, every outcome-atom id points into the outcome pool
/// (whose `term` ids point into the term pool), and both pools are
/// duplicate-free — an interning bug would silently double memory and, for
/// outcome atoms, skew the expected-reward sums.
pub fn audit_parametric(family: &ParametricModel) -> Vec<String> {
    let mut violations = Vec::new();
    let term_pool = family.term_pool();
    let atom_pool = family.atom_pool();

    let check_offsets =
        |name: &str, ptr: &[u32], rows: usize, ids: usize, out: &mut Vec<String>| {
            if ptr.len() != rows + 1 {
                out.push(format!("{name} has {} entries for {rows} rows", ptr.len()));
                return;
            }
            if ptr.first() != Some(&0) || ptr.last().map(|&e| e as usize) != Some(ids) {
                out.push(format!("{name} does not span [0, {ids}]"));
            }
            for (row, window) in ptr.windows(2).enumerate() {
                if window[1] < window[0] {
                    out.push(format!("{name} decreases at row {row}"));
                }
            }
        };
    check_offsets(
        "prob_atom_ptr",
        family.prob_atom_ptr(),
        family.num_transitions(),
        family.prob_atoms().len(),
        &mut violations,
    );
    check_offsets(
        "reward_ptr",
        family.reward_ptr(),
        family.num_pairs(),
        family.reward_atoms().len(),
        &mut violations,
    );
    for (index, &id) in family.prob_atoms().iter().enumerate() {
        if (id as usize) >= term_pool.len() {
            violations.push(format!("prob atom {index}: term id {id} out of pool"));
        }
    }
    for (index, &id) in family.reward_atoms().iter().enumerate() {
        if (id as usize) >= atom_pool.len() {
            violations.push(format!("reward atom {index}: outcome id {id} out of pool"));
        }
    }
    for (id, atom) in atom_pool.iter().enumerate() {
        if (atom.term as usize) >= term_pool.len() {
            violations.push(format!("outcome {id}: term id {} out of pool", atom.term));
        }
    }
    let mut seen_terms = HashSet::new();
    for (id, term) in term_pool.iter().enumerate() {
        if !seen_terms.insert(*term) {
            violations.push(format!("term pool entry {id} duplicates an earlier term"));
        }
    }
    let mut seen_atoms = HashSet::new();
    for (id, atom) in atom_pool.iter().enumerate() {
        if !seen_atoms.insert(*atom) {
            violations.push(format!(
                "outcome pool entry {id} duplicates an earlier outcome"
            ));
        }
    }
    violations
}

/// Proves a scenario model an *action subset* of the optimal model at the
/// same `(p, γ)`: every scenario state exists in the optimal model, every
/// scenario action exists (by name) at the corresponding optimal state, and
/// the successor distributions agree entry by entry (successors compared
/// through the state correspondence, probabilities to within `1e-12` —
/// instantiation evaluates the same interned terms, so they are expected to
/// be bit-identical). This is the restriction-dominance precondition
/// (`ERRev*_scenario ≤ ERRev*`), checked exhaustively rather than sampled.
pub fn audit_scenario_restriction(
    optimal: &SelfishMiningModel,
    scenario: &SelfishMiningModel,
) -> Vec<String> {
    let mut violations = Vec::new();
    if !scenario.scenario().is_action_restriction() {
        violations.push(format!(
            "scenario {} is not an action restriction of the optimal model",
            scenario.scenario().label()
        ));
        return violations;
    }
    let op = optimal.params();
    let sp = scenario.params();
    if op.p.to_bits() != sp.p.to_bits()
        || op.gamma.to_bits() != sp.gamma.to_bits()
        || op.depth != sp.depth
        || op.forks_per_block != sp.forks_per_block
        || op.max_fork_length != sp.max_fork_length
    {
        violations.push("optimal and scenario models disagree on parameters".to_string());
        return violations;
    }
    // Index the optimal states once; lookups only (no map iteration).
    let mut index_of: HashMap<&SmState, usize> = HashMap::with_capacity(optimal.num_states());
    for s in 0..optimal.num_states() {
        index_of.insert(optimal.state(s), s);
    }
    for s in 0..scenario.num_states() {
        let Some(&o) = index_of.get(scenario.state(s)) else {
            violations.push(format!(
                "scenario state {s} does not exist in the optimal model"
            ));
            continue;
        };
        for a in 0..scenario.mdp().num_actions(s) {
            let name = scenario.mdp().action_name(s, a);
            let Some(oa) = optimal.mdp().find_action(o, name) else {
                violations.push(format!(
                    "scenario state {s}: action {name:?} missing from optimal state {o}"
                ));
                continue;
            };
            let (s_cols, s_probs) = scenario.mdp().successors(s, a);
            let (o_cols, o_probs) = optimal.mdp().successors(o, oa);
            if s_cols.len() != o_cols.len() {
                violations.push(format!(
                    "scenario state {s} action {name:?}: {} successors vs {} in the optimal model",
                    s_cols.len(),
                    o_cols.len()
                ));
                continue;
            }
            // Columns are sorted by each arena's *own* state numbering, so
            // the correspondence can permute them; compare the mapped
            // distribution as a sorted set.
            let mut mapped: Vec<(Option<usize>, f64)> = s_cols
                .iter()
                .zip(s_probs)
                .map(|(&target, &weight)| {
                    let index = index_of.get(scenario.state(target as usize)).copied();
                    (index, weight)
                })
                .collect();
            mapped.sort_by_key(|&(index, _)| index);
            for (k, ((mapped_target, weight), (&o_target, &o_weight))) in
                mapped.iter().zip(o_cols.iter().zip(o_probs)).enumerate()
            {
                if *mapped_target != Some(o_target as usize) {
                    violations.push(format!(
                        "scenario state {s} action {name:?} successor {k}: maps to {mapped_target:?}, optimal has {o_target}"
                    ));
                } else if (weight - o_weight).abs() > 1e-12 {
                    violations.push(format!(
                        "scenario state {s} action {name:?} successor {k}: probability {weight} vs {o_weight}"
                    ));
                }
            }
        }
    }
    violations
}
