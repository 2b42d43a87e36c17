//! Equivalence of the parameterized transition arena and an independent,
//! test-local construction of the same MDP: a direct breadth-first search
//! over the concrete transition function `successors_in`, streamed into
//! `CsrMdpBuilder`. `ParametricModel::instantiate(p, γ)` must reproduce that
//! pruned arena **bit for bit** (states, CSR arrays, probabilities, rewards,
//! VI/PI gains and strategies) for interior parameters and every attack
//! scenario, and must agree on every solver-level result for the masked
//! edge cases `γ ∈ {0, 1}` and `p ∈ {0, 1}`, where the direct search prunes
//! zero-probability branches while the parametric arena keeps them
//! structurally.
//!
//! The oracle keeps its rewards per transition (`sm_oracle::TransitionRewards`)
//! and forms `r_β` transition by transition, the construction the model's
//! per-pair rewards replace; the model's `r_β` expectations and induced-chain
//! rewards must reproduce that path bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfish_mining::experiments::CurveTracker;
use selfish_mining::{
    available_actions_in, successors_in, AnalysisConfig, AttackParams, AttackScenario,
    ParametricModel, SelfishMiningModel, SmAction, SmState,
};
use sm_mdp::{CsrMdpBuilder, Mdp, PositionalStrategy, RelativeValueIteration, SolverParallelism};
use sm_oracle::{PolicyIteration, TransitionRewards};
use std::collections::HashMap;

/// The `(d, f, l)` topologies swept by the equivalence properties.
const TOPOLOGIES: [(usize, usize, usize); 4] = [(1, 1, 2), (2, 1, 3), (2, 2, 3), (1, 2, 4)];

/// The selfish-mining MDP built by a direct BFS at concrete parameters: the
/// test oracle the parametric arena is pinned against.
struct Pruned {
    params: AttackParams,
    states: Vec<SmState>,
    actions: Vec<Vec<SmAction>>,
    mdp: Mdp,
    adversary: TransitionRewards,
    honest: TransitionRewards,
}

impl Pruned {
    /// Explores the states reachable from the initial state under the
    /// concrete transition function of `scenario` (which drops
    /// zero-probability outcomes). States are expanded in discovery order,
    /// every action streams straight into the CSR builder, and the expected
    /// per-action block counts accumulate over the outcomes in the order
    /// `successors_in` lists them.
    fn build(scenario: AttackScenario, p: f64, gamma: f64, d: usize, f: usize, l: usize) -> Self {
        let params = AttackParams::new(p, gamma, d, f, l).unwrap();
        let initial = SmState::initial(&params);
        let mut index_of = HashMap::from([(initial.clone(), 0)]);
        let mut states = vec![initial];
        let mut actions = Vec::new();
        let mut builder = CsrMdpBuilder::new();
        let (mut adversary, mut honest) = (Vec::new(), Vec::new());
        while actions.len() < states.len() {
            builder.begin_state();
            let state = states[actions.len()].clone();
            let state_actions = available_actions_in(&scenario, &params, &state);
            for action in &state_actions {
                let mut entries = Vec::new();
                let (mut adv, mut hon) = (0.0, 0.0);
                for out in successors_in(&scenario, &params, &state, action).unwrap() {
                    let target = *index_of.entry(out.state.clone()).or_insert_with(|| {
                        states.push(out.state);
                        states.len() - 1
                    });
                    entries.push((target, out.probability));
                    adv += out.probability * f64::from(out.rewards.adversary);
                    hon += out.probability * f64::from(out.rewards.honest);
                }
                builder.add_action(&entries).unwrap();
                adversary.push(adv);
                honest.push(hon);
            }
            actions.push(state_actions);
        }
        let mdp = builder.finish().unwrap();
        Pruned {
            adversary: TransitionRewards::from_pair_values(&mdp, &adversary).unwrap(),
            honest: TransitionRewards::from_pair_values(&mdp, &honest).unwrap(),
            params,
            states,
            actions,
            mdp,
        }
    }

    /// `r_β = r_A − β · (r_A + r_H)`, formed per transition.
    fn beta_rewards(&self, beta: f64) -> TransitionRewards {
        per_transition_beta_rewards(&self.adversary, &self.honest, beta)
    }

    /// Exact relative revenue `g_A / (g_A + g_H)` of a positional strategy.
    fn revenue(&self, strategy: &PositionalStrategy) -> f64 {
        let chain = self.mdp.induced_chain(strategy).unwrap();
        let r_adv = self
            .adversary
            .strategy_rewards(&self.mdp, strategy)
            .unwrap();
        let r_hon = self.honest.strategy_rewards(&self.mdp, strategy).unwrap();
        let (gains, _) =
            sm_mdp::iterative_gains(&chain, &[&r_adv, &r_hon], None, SolverParallelism::serial())
                .unwrap();
        gains[0] / (gains[0] + gains[1])
    }

    /// A short Dinkelbach iteration: `β ← ERRev(σ_β)` from `β = 0` until the
    /// revenue stops improving by `ε / 10`, then the last strategy's revenue.
    fn dinkelbach_revenue(&self, epsilon: f64) -> f64 {
        let vi = RelativeValueIteration::with_epsilon(epsilon * 1e-2);
        let mut beta = 0.0;
        for _ in 0..100 {
            let rewards = self.beta_rewards(beta).expected_per_pair(&self.mdp);
            let solve = vi.solve(&self.mdp, &rewards).unwrap();
            let revenue = self.revenue(&solve.strategy);
            if revenue - beta < epsilon * 0.1 {
                return revenue;
            }
            beta = revenue;
        }
        panic!("test-local Dinkelbach iteration did not converge");
    }
}

/// `r_β = r_A − β · (r_A + r_H)` formed transition by transition: the sum,
/// then the affine combination.
fn per_transition_beta_rewards(
    adversary: &TransitionRewards,
    honest: &TransitionRewards,
    beta: f64,
) -> TransitionRewards {
    let total = adversary.sum(honest).unwrap();
    adversary.affine_combination(&total, 1.0, -beta).unwrap()
}

/// The model's per-pair reward tables replicated over each pair's
/// transitions: the per-transition buffers an instantiation used to hold.
fn per_transition_rewards(model: &SelfishMiningModel) -> (TransitionRewards, TransitionRewards) {
    let mdp = model.mdp();
    (
        TransitionRewards::from_pair_values(mdp, model.adversary_rewards()).unwrap(),
        TransitionRewards::from_pair_values(mdp, model.honest_rewards()).unwrap(),
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Full structural comparison: the parameters, states, action lists, the
/// entire CSR arena (index arrays and probabilities) and both reward tables —
/// every oracle transition's reward equals its pair's stored value.
fn assert_bit_identical(instantiated: &SelfishMiningModel, pruned: &Pruned) {
    assert_eq!(instantiated.params(), &pruned.params);
    assert_eq!(instantiated.num_states(), pruned.states.len());
    for (s, state) in pruned.states.iter().enumerate() {
        assert_eq!(instantiated.state(s), state);
        assert_eq!(instantiated.actions_of(s), pruned.actions[s].as_slice());
    }
    assert_eq!(instantiated.mdp(), &pruned.mdp);
    let layout = pruned.mdp.layout();
    for (per_pair, oracle) in [
        (instantiated.adversary_rewards(), &pruned.adversary),
        (instantiated.honest_rewards(), &pruned.honest),
    ] {
        assert_eq!(per_pair.len(), layout.num_pairs());
        for (pair, value) in per_pair.iter().enumerate() {
            for &reward in &oracle.values()[layout.transition_range(pair)] {
                assert_eq!(reward.to_bits(), value.to_bits(), "pair {pair}");
            }
        }
    }
}

/// Identical inputs make the deterministic solvers produce identical outputs;
/// assert exactly that (no tolerances) for VI and PI at a non-trivial β.
fn assert_identical_solver_results(instantiated: &SelfishMiningModel, pruned: &Pruned) {
    let beta = 0.35;
    let rb = pruned.beta_rewards(beta);
    let vi = RelativeValueIteration::with_epsilon(1e-7);
    let va = vi
        .solve(instantiated.mdp(), &instantiated.beta_rewards(beta))
        .unwrap();
    let vb = vi
        .solve(&pruned.mdp, &rb.expected_per_pair(&pruned.mdp))
        .unwrap();
    assert_eq!(va.gain, vb.gain, "VI gains must be bit-identical");
    assert_eq!(va.strategy, vb.strategy, "VI strategies must be identical");
    assert_eq!(va.iterations, vb.iterations);
    let (adversary, honest) = per_transition_rewards(instantiated);
    let ra = per_transition_beta_rewards(&adversary, &honest, beta);
    let (pa, sa) = PolicyIteration::solve(instantiated.mdp(), &ra).unwrap();
    let (pb, sb) = PolicyIteration::solve(&pruned.mdp, &rb).unwrap();
    assert_eq!(pa, pb, "PI gains must be bit-identical");
    assert_eq!(sa, sb, "PI strategies must be identical");
}

#[test]
fn interior_instantiation_is_bit_for_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x9A7A_11E1);
    for scenario in AttackScenario::default_family() {
        for &(d, f, l) in &TOPOLOGIES {
            let family = ParametricModel::build_scenario(scenario, d, f, l).unwrap();
            for case in 0..4 {
                // Strictly interior (p, γ): the direct search prunes nothing.
                let p = 0.05 + rng.gen_range(0.0..0.85);
                let gamma = 0.05 + rng.gen_range(0.0..0.9);
                let instantiated = family.instantiate(p, gamma).unwrap();
                assert_eq!(instantiated.scenario(), scenario);
                let pruned = Pruned::build(scenario, p, gamma, d, f, l);
                assert_bit_identical(&instantiated, &pruned);
                // Identical arenas make the solvers agree for every scenario;
                // the (costly) policy-iteration check runs on the optimal one.
                if case == 0 && scenario == AttackScenario::Optimal {
                    assert_identical_solver_results(&instantiated, &pruned);
                }
            }
        }
    }
}

/// The model's per-pair `r_β` expectations and induced-chain rewards are
/// the per-transition path's, bit for bit: against the pruned oracle at an
/// interior point for several β, and against the per-transition replicas of
/// the instantiated arena itself at `γ = 0` (masked race branches leave
/// `p == 0` slots) and at `p = 0`, where the pruned arena has a different
/// shape.
#[test]
fn per_pair_rewards_reproduce_the_per_transition_path() {
    let family = ParametricModel::build(2, 1, 3).unwrap();
    let assert_same_path = |model: &SelfishMiningModel,
                            adversary: &TransitionRewards,
                            honest: &TransitionRewards,
                            beta: f64,
                            context: &str| {
        let mdp = model.mdp();
        let oracle = per_transition_beta_rewards(adversary, honest, beta);
        assert_eq!(
            bits(&model.beta_rewards(beta)),
            bits(&oracle.expected_per_pair(mdp)),
            "{context}: e_β at β = {beta}"
        );
        // The chain rewards of the strategy optimal at β, and of always-mine.
        let optimal = RelativeValueIteration::with_epsilon(1e-7)
            .solve(mdp, &model.beta_rewards(beta))
            .unwrap()
            .strategy;
        for strategy in [
            optimal,
            PositionalStrategy::uniform_first_action(model.num_states()),
        ] {
            let (adv, hon) = model.strategy_rewards(&strategy).unwrap();
            assert_eq!(
                bits(&adv),
                bits(&adversary.strategy_rewards(mdp, &strategy).unwrap()),
                "{context}: adversary chain rewards at β = {beta}"
            );
            assert_eq!(
                bits(&hon),
                bits(&honest.strategy_rewards(mdp, &strategy).unwrap()),
                "{context}: honest chain rewards at β = {beta}"
            );
        }
    };

    let interior = family.instantiate(0.3, 0.5).unwrap();
    let pruned = Pruned::build(AttackScenario::Optimal, 0.3, 0.5, 2, 1, 3);
    assert_bit_identical(&interior, &pruned);
    for beta in [0.0, 0.25, 0.5, 1.0] {
        assert_same_path(
            &interior,
            &pruned.adversary,
            &pruned.honest,
            beta,
            "interior",
        );
    }

    for (p, gamma) in [(0.3, 0.0), (0.0, 0.5)] {
        let masked = family.instantiate(p, gamma).unwrap();
        assert!(masked.mdp().probabilities().contains(&0.0));
        let (adversary, honest) = per_transition_rewards(&masked);
        for beta in [0.0, 0.35, 1.0] {
            assert_same_path(
                &masked,
                &adversary,
                &honest,
                beta,
                &format!("(p={p},γ={gamma})"),
            );
        }
    }
}

#[test]
fn masked_edges_agree_with_the_pruned_builder_on_gains() {
    // At the parameter-square edges the direct search prunes masked
    // branches (smaller state space), so structural equality is impossible;
    // the certified solver results must still coincide.
    let edge_cases = [
        (0.0, 0.5),
        (0.0, 0.0),
        (0.0, 1.0),
        (0.3, 0.0),
        (0.3, 1.0),
        (1.0, 0.5),
    ];
    let vi_epsilon = 1e-8;
    for &(d, f, l) in &[(1, 1, 2), (2, 1, 3)] {
        let family = ParametricModel::build(d, f, l).unwrap();
        for &(p, gamma) in &edge_cases {
            let instantiated = family.instantiate(p, gamma).unwrap();
            instantiated.mdp().validate().unwrap();
            let pruned = Pruned::build(AttackScenario::Optimal, p, gamma, d, f, l);
            assert!(instantiated.num_states() >= pruned.states.len());
            for beta in [0.0, 0.35] {
                let vi = RelativeValueIteration::with_epsilon(vi_epsilon);
                let ga = vi
                    .solve(instantiated.mdp(), &instantiated.beta_rewards(beta))
                    .unwrap()
                    .gain;
                let gb = vi
                    .solve(
                        &pruned.mdp,
                        &pruned.beta_rewards(beta).expected_per_pair(&pruned.mdp),
                    )
                    .unwrap()
                    .gain;
                assert!(
                    (ga - gb).abs() <= 2.0 * vi_epsilon,
                    "(d={d},f={f},l={l}) (p={p},γ={gamma}) β={beta}: \
                     masked gain {ga} vs pruned gain {gb}"
                );
            }
        }
    }
}

#[test]
fn masked_edges_agree_on_the_full_analysis() {
    // End-to-end check: the certified analysis on the masked arena
    // (exercising the induced chains with structurally-kept zero-probability
    // entries and the revenue evaluation) against a test-local Dinkelbach
    // iteration on the pruned arena.
    let epsilon = 2e-3;
    let family = ParametricModel::build(2, 1, 3).unwrap();
    for &(p, gamma) in &[(0.0, 0.5), (0.3, 0.0), (0.3, 1.0)] {
        let pruned = Pruned::build(AttackScenario::Optimal, p, gamma, 2, 1, 3);
        let a = CurveTracker::new(&family, gamma, true, AnalysisConfig::with_epsilon(epsilon))
            .advance(p)
            .unwrap()
            .strategy_revenue;
        let b = pruned.dinkelbach_revenue(epsilon);
        assert!(
            (a - b).abs() < 2.0 * epsilon,
            "(p={p},γ={gamma}): masked revenue {a} vs pruned revenue {b}"
        );
    }
}

#[test]
fn in_place_reinstantiation_follows_a_seeded_parameter_walk() {
    // One reused model walked across a seeded (p, γ) sequence — including
    // repeated visits to masked edges — must stay bit-identical to a fresh
    // instantiation at every step (guards against stale-buffer bugs).
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE11);
    for &(d, f, l) in &TOPOLOGIES {
        let family = ParametricModel::build(d, f, l).unwrap();
        let mut reused = family.instantiate(0.5, 0.5).unwrap();
        for step in 0..8 {
            let (p, gamma) = match step {
                0 => (0.0, 0.5),
                1 => (rng.gen_range(0.0..1.0), 0.0),
                2 => (rng.gen_range(0.0..1.0), 1.0),
                _ => (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
            };
            family.instantiate_into(&mut reused, p, gamma).unwrap();
            let direct = family.instantiate(p, gamma).unwrap();
            assert_eq!(reused.mdp(), direct.mdp(), "step {step} (p={p},γ={gamma})");
            assert_eq!(
                bits(reused.adversary_rewards()),
                bits(direct.adversary_rewards())
            );
            assert_eq!(bits(reused.honest_rewards()), bits(direct.honest_rewards()));
        }
    }
}

#[test]
fn warm_started_vi_agrees_with_cold_and_reconverges_fast() {
    let family = ParametricModel::build(2, 1, 4).unwrap();
    let gamma = 0.5;
    let beta = 0.35;
    let vi = RelativeValueIteration::with_epsilon(1e-7);

    let near = family.instantiate(0.25, gamma).unwrap();
    let near_rewards = near.beta_rewards(beta);
    let seed = vi.solve(near.mdp(), &near_rewards).unwrap();

    let target = family.instantiate(0.30, gamma).unwrap();
    let target_rewards = target.beta_rewards(beta);
    let cold = vi.solve(target.mdp(), &target_rewards).unwrap();
    let warm = vi
        .solve_from(target.mdp(), &target_rewards, &seed.bias)
        .unwrap();
    assert!(
        (warm.gain - cold.gain).abs() <= 2e-7,
        "warm gain {} vs cold gain {}",
        warm.gain,
        cold.gain
    );
    assert_eq!(warm.strategy, cold.strategy);
    // A foreign bias is a valid seed but not guaranteed to save sweeps on a
    // *single* solve (the measured win comes from chaining bias across the
    // Dinkelbach β iterations, where consecutive problems are nearly
    // identical); it must at least stay in the same ballpark.
    assert!(
        warm.iterations <= 2 * cold.iterations,
        "warm start degraded convergence ({} vs {})",
        warm.iterations,
        cold.iterations
    );

    // Re-solving the *same* problem from its own converged bias is nearly
    // instantaneous — the degenerate best case of the warm start.
    let resolved = vi
        .solve_from(target.mdp(), &target_rewards, &cold.bias)
        .unwrap();
    assert!(
        resolved.iterations <= 3,
        "re-solve from converged bias took {} sweeps",
        resolved.iterations
    );
}
