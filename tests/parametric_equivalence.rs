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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfish_mining::{
    available_actions_in, successors_in, AnalysisProcedure, AttackParams, AttackScenario,
    ParametricModel, SelfishMiningModel, SmAction, SmState,
};
use sm_mdp::{
    CsrMdpBuilder, Mdp, PositionalStrategy, RelativeValueIteration, SolverParallelism,
    TransitionRewards,
};
use sm_oracle::PolicyIteration;
use std::collections::HashMap;

/// The `(d, f, l)` topologies swept by the equivalence properties.
const TOPOLOGIES: [(usize, usize, usize); 4] = [(1, 1, 2), (2, 1, 3), (2, 2, 3), (1, 2, 4)];

/// The selfish-mining MDP built by a direct BFS at concrete parameters: the
/// test oracle the parametric arena is pinned against.
struct Pruned {
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
                builder.add_action(&action.name(), &entries).unwrap();
                adversary.push(adv);
                honest.push(hon);
            }
            actions.push(state_actions);
        }
        let mdp = builder.finish(0).unwrap();
        Pruned {
            adversary: TransitionRewards::from_pair_values(&mdp, &adversary).unwrap(),
            honest: TransitionRewards::from_pair_values(&mdp, &honest).unwrap(),
            states,
            actions,
            mdp,
        }
    }

    /// `r_β = r_A − β · (r_A + r_H)`, formed exactly as
    /// `SelfishMiningModel::beta_rewards` does.
    fn beta_rewards(&self, beta: f64) -> TransitionRewards {
        let total = self.adversary.sum(&self.honest).unwrap();
        self.adversary
            .affine_combination(&total, 1.0, -beta)
            .unwrap()
    }

    /// Exact relative revenue `g_A / (g_A + g_H)` of a positional strategy.
    fn revenue(&self, strategy: &PositionalStrategy) -> f64 {
        let chain = self.mdp.induced_chain(strategy).unwrap();
        let r_adv = self
            .adversary
            .strategy_rewards(&self.mdp, strategy)
            .unwrap();
        let r_hon = self.honest.strategy_rewards(&self.mdp, strategy).unwrap();
        let (gains, _) = sm_markov::iterative_gains(
            &chain,
            &[&r_adv, &r_hon],
            None,
            SolverParallelism::serial(),
        )
        .unwrap();
        gains[0] / (gains[0] + gains[1])
    }

    /// A short Dinkelbach iteration: `β ← ERRev(σ_β)` from `β = 0` until the
    /// revenue stops improving by `ε / 10`, then the last strategy's revenue.
    fn dinkelbach_revenue(&self, epsilon: f64) -> f64 {
        let vi = RelativeValueIteration::with_epsilon(epsilon * 1e-2);
        let mut beta = 0.0;
        for _ in 0..100 {
            let solve = vi.solve(&self.mdp, &self.beta_rewards(beta)).unwrap();
            let revenue = self.revenue(&solve.strategy);
            if revenue - beta < epsilon * 0.1 {
                return revenue;
            }
            beta = revenue;
        }
        panic!("test-local Dinkelbach iteration did not converge");
    }
}

/// Full structural comparison: states, action lists, the entire CSR arena
/// (index arrays, probabilities, interned names) and both reward buffers.
fn assert_bit_identical(instantiated: &SelfishMiningModel, pruned: &Pruned) {
    assert_eq!(instantiated.num_states(), pruned.states.len());
    for (s, state) in pruned.states.iter().enumerate() {
        assert_eq!(instantiated.state(s), state);
        assert_eq!(instantiated.actions_of(s), pruned.actions[s].as_slice());
    }
    assert_eq!(instantiated.mdp(), &pruned.mdp);
    assert_eq!(
        instantiated.adversary_rewards().values(),
        pruned.adversary.values()
    );
    assert_eq!(
        instantiated.honest_rewards().values(),
        pruned.honest.values()
    );
}

/// Identical inputs make the deterministic solvers produce identical outputs;
/// assert exactly that (no tolerances) for VI and PI at a non-trivial β.
fn assert_identical_solver_results(instantiated: &SelfishMiningModel, pruned: &Pruned) {
    let beta = 0.35;
    let ra = instantiated.beta_rewards(beta).unwrap();
    let rb = pruned.beta_rewards(beta);
    let vi = RelativeValueIteration::with_epsilon(1e-7);
    let va = vi.solve(instantiated.mdp(), &ra).unwrap();
    let vb = vi.solve(&pruned.mdp, &rb).unwrap();
    assert_eq!(va.gain, vb.gain, "VI gains must be bit-identical");
    assert_eq!(va.strategy, vb.strategy, "VI strategies must be identical");
    assert_eq!(va.iterations, vb.iterations);
    let (pa, sa) = PolicyIteration::default()
        .solve(instantiated.mdp(), &ra)
        .unwrap();
    let (pb, sb) = PolicyIteration::default().solve(&pruned.mdp, &rb).unwrap();
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
                    .solve(
                        instantiated.mdp(),
                        &instantiated.beta_rewards(beta).unwrap(),
                    )
                    .unwrap()
                    .gain;
                let gb = vi
                    .solve(&pruned.mdp, &pruned.beta_rewards(beta))
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
    // End-to-end check: Algorithm 1's Dinkelbach variant on the masked
    // arena (exercising the induced chains with structurally-kept
    // zero-probability entries and the revenue evaluation) against a
    // test-local Dinkelbach iteration on the pruned arena.
    let epsilon = 2e-3;
    let family = ParametricModel::build(2, 1, 3).unwrap();
    for &(p, gamma) in &[(0.0, 0.5), (0.3, 0.0), (0.3, 1.0)] {
        let instantiated = family.instantiate(p, gamma).unwrap();
        let pruned = Pruned::build(AttackScenario::Optimal, p, gamma, 2, 1, 3);
        let a = AnalysisProcedure::with_epsilon(epsilon)
            .solve_dinkelbach(&instantiated)
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
                reused.adversary_rewards().values(),
                direct.adversary_rewards().values()
            );
            assert_eq!(
                reused.honest_rewards().values(),
                direct.honest_rewards().values()
            );
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
    let near_rewards = near.beta_rewards(beta).unwrap();
    let seed = vi.solve(near.mdp(), &near_rewards).unwrap();

    let target = family.instantiate(0.30, gamma).unwrap();
    let target_rewards = target.beta_rewards(beta).unwrap();
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
