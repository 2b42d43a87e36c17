//! Cross-validation between the formal MDP analysis (`selfish-mining`) and the
//! Monte-Carlo blockchain simulator (`sm-chain`): the two implementations are
//! fully independent (exact solver vs. explicit block tree with an RNG), so
//! agreement on the measured relative revenue is strong evidence that both
//! encode the same system model.

use selfish_mining::baselines::honest_relative_revenue;
use selfish_mining::{
    available_actions, AnalysisProcedure, AttackParams, ParametricModel, StrategyExport,
};
use sm_chain::{HonestStrategy, SimulationConfig, Simulator, UnknownViewPolicy};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The honest strategy's empirical relative revenue matches its analytic value
/// `p` in the simulator.
#[test]
fn simulator_reproduces_honest_share() {
    for p in [0.2, 0.35] {
        let config = SimulationConfig {
            p,
            steps: 150_000,
            seed: 7,
            ..SimulationConfig::default()
        };
        let report = Simulator::new(config).run(&mut HonestStrategy);
        let analytic = honest_relative_revenue(p).unwrap();
        assert!(
            (report.relative_revenue() - analytic).abs() < 0.02,
            "p={p}: simulated {} vs analytic {analytic}",
            report.relative_revenue()
        );
    }
}

/// Replaying the MDP-optimal strategy in the simulator yields an empirical
/// relative revenue close to the exact value computed by the analysis.
#[test]
fn simulator_matches_mdp_value_for_optimal_strategy() {
    let p = 0.3;
    let gamma = 0.5;
    let model = ParametricModel::build(2, 1, 4)
        .unwrap()
        .instantiate(p, gamma)
        .unwrap();
    let result = AnalysisProcedure::with_epsilon(1e-3)
        .solve_dinkelbach(&model)
        .unwrap();

    // The export is the production API the conformance subsystem uses; the
    // strict policy certifies that the MDP covers every view the simulator
    // reaches in these runs.
    let mut strategy = StrategyExport::new(&model)
        .table(&result.strategy, UnknownViewPolicy::Panic)
        .expect("strategy export succeeds");
    assert!(
        !strategy.is_empty(),
        "the optimal strategy must act somewhere"
    );

    // Average a few independent runs to keep the Monte-Carlo error well below
    // the comparison tolerance.
    let mut revenues = Vec::new();
    for seed in [99, 7_315, 20_240_615] {
        let config = SimulationConfig {
            p,
            gamma,
            steps: 400_000,
            seed,
            ..SimulationConfig::default()
        };
        let report = Simulator::new(config).run(&mut strategy);
        revenues.push(report.relative_revenue());
    }
    let mean = revenues.iter().sum::<f64>() / revenues.len() as f64;
    assert!(
        (mean - result.strategy_revenue).abs() < 0.03,
        "simulated {revenues:?} (mean {mean}) vs exact {}",
        result.strategy_revenue
    );
    // And the replayed optimal strategy clearly beats the honest share in the
    // simulator as well.
    assert!(mean > p + 0.01);
}

/// The structured transition function and the model builder agree on which
/// actions exist: every action of every MDP state corresponds to one entry of
/// `available_actions`.
#[test]
fn model_action_lists_match_transition_function() {
    let params = AttackParams::new(0.25, 0.75, 2, 2, 3).unwrap();
    let model = ParametricModel::build(2, 2, 3)
        .unwrap()
        .instantiate(params.p, params.gamma)
        .unwrap();
    for state_index in 0..model.num_states() {
        let expected = available_actions(&params, model.state(state_index));
        assert_eq!(model.actions_of(state_index), expected.as_slice());
        assert_eq!(model.mdp().num_actions(state_index), expected.len());
    }
}

// ---------------------------------------------------------------------------
// Representation equivalence: raw-parts assembly vs. the streaming builder.
// ---------------------------------------------------------------------------

/// Raw per-state action lists describing a small MDP: `(name, transitions)`.
type ModelDescription = Vec<Vec<(String, Vec<(usize, f64)>)>>;

/// One random small MDP described as raw per-state action lists.
/// Every action carries a guaranteed transition back to state 0, which makes
/// every induced chain unichain — the precondition of the LP solver.
fn random_model_description(rng: &mut StdRng) -> ModelDescription {
    let num_states = rng.gen_range(2usize..6); // 2..=5
    let mut states = Vec::with_capacity(num_states);
    for _ in 0..num_states {
        let num_actions = rng.gen_range(1usize..4); // 1..=3
        let mut actions = Vec::with_capacity(num_actions);
        for a in 0..num_actions {
            // 1..=3 targets; random weights, normalised so that a fixed 0.3
            // share always flows back to state 0.
            let num_targets = rng.gen_range(1usize..1 + 3.min(num_states));
            let mut weights: Vec<(usize, f64)> = (0..num_targets)
                .map(|_| (rng.gen_range(0..num_states), 0.1 + rng.gen_range(0.0..1.0)))
                .collect();
            let total: f64 = weights.iter().map(|&(_, w)| w).sum();
            for entry in &mut weights {
                entry.1 = entry.1 / total * 0.7;
            }
            weights.push((0, 0.3));
            actions.push((format!("a{a}"), weights));
        }
        states.push(actions);
    }
    states
}

/// Flattens the nested description by hand into CSR arrays and assembles
/// them through the raw-parts path (the one the parametric arena uses).
/// Duplicate successors are merged in the streaming builder's order: sorted
/// by target with the same `sort_unstable_by_key` call, then summed.
fn build_nested(description: &ModelDescription) -> sm_mdp::Mdp {
    let (mut row_ptr, mut action_ptr) = (vec![0], vec![0]);
    let (mut col, mut prob) = (Vec::new(), Vec::new());
    let (mut names, mut name_of_pair) = (Vec::<String>::new(), Vec::new());
    for actions in description {
        for (name, transitions) in actions {
            let mut row: Vec<(u32, f64)> = transitions
                .iter()
                .map(|&(t, p)| (u32::try_from(t).unwrap(), p))
                .collect();
            row.sort_unstable_by_key(|&(t, _)| t);
            let start = col.len();
            for (target, p) in row {
                if col.len() > start && col.last() == Some(&(target as usize)) {
                    *prob.last_mut().unwrap() += p;
                } else {
                    col.push(target as usize);
                    prob.push(p);
                }
            }
            action_ptr.push(col.len());
            let id = match names.iter().position(|n| n == name) {
                Some(id) => id,
                None => {
                    names.push(name.clone());
                    names.len() - 1
                }
            };
            name_of_pair.push(u32::try_from(id).unwrap());
        }
        row_ptr.push(action_ptr.len() - 1);
    }
    let layout = sm_mdp::CsrLayout::from_raw_parts(row_ptr, action_ptr, col).unwrap();
    sm_mdp::Mdp::from_raw_parts(std::sync::Arc::new(layout), prob, names, name_of_pair, 0).unwrap()
}

/// Builds the same description by streaming it into the CSR arena builder.
fn build_arena(description: &ModelDescription) -> sm_mdp::Mdp {
    let mut builder = sm_mdp::CsrMdpBuilder::new();
    for actions in description {
        builder.begin_state();
        for (name, transitions) in actions {
            builder.add_action(name, transitions).unwrap();
        }
    }
    builder.finish(0).unwrap()
}

/// Property: on random small MDPs, the hand-flattened raw-parts path and the
/// streaming CSR arena path produce *identical* models (same arena layout,
/// probabilities and interned names), and VI, PI and LP each report the same
/// optimal gain and the same strategy on both.
#[test]
fn nested_and_csr_arena_builders_are_equivalent() {
    use sm_mdp::{Mdp, PositionalStrategy, RelativeValueIteration};
    use sm_oracle::{LinearProgrammingSolver, PolicyIteration, TransitionRewards};

    /// Optimal gain and strategy by value iteration, policy iteration and
    /// the LP, in that order.
    fn solve_all(mdp: &Mdp, rewards: &TransitionRewards) -> [(f64, PositionalStrategy); 3] {
        let vi = RelativeValueIteration::with_epsilon(1e-9)
            .solve(mdp, &rewards.expected_per_pair(mdp))
            .unwrap();
        [
            (vi.gain, vi.strategy),
            PolicyIteration::default().solve(mdp, rewards).unwrap(),
            LinearProgrammingSolver::default()
                .solve(mdp, rewards)
                .unwrap(),
        ]
    }

    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    for case in 0..25 {
        let description = random_model_description(&mut rng);
        let nested = build_nested(&description);
        let arena = build_arena(&description);
        assert_eq!(
            nested, arena,
            "case {case}: builders disagree on the arena for {description:?}"
        );

        // A deterministic reward function of the indices is identical across
        // both models by construction.
        let reward_seed = rng.next_u64() % 97;
        let reward_fn = |s: usize, a: usize, t: usize| {
            ((s * 31 + a * 17 + t * 7 + reward_seed as usize) % 13) as f64 / 13.0 - 0.4
        };
        let r_nested = TransitionRewards::from_fn(&nested, reward_fn);
        let r_arena = TransitionRewards::from_fn(&arena, reward_fn);
        assert_eq!(r_nested.values(), r_arena.values(), "case {case}");
        // Buffers built against either representation align with both.
        assert!(r_nested.matches(&arena) && r_arena.matches(&nested));

        let methods = ["value iteration", "policy iteration", "linear programming"];
        let on_nested = solve_all(&nested, &r_nested);
        let on_arena = solve_all(&arena, &r_arena);
        for ((method, a), b) in methods.iter().zip(on_nested).zip(on_arena) {
            assert_eq!(a.1, b.1, "case {case}: {method} strategies diverge");
            assert!(
                (a.0 - b.0).abs() < 1e-12,
                "case {case}: {method} gains diverge: {} vs {}",
                a.0,
                b.0
            );
        }
    }
}

/// The identical-layout guarantee carries over to the real selfish-mining
/// model: replaying an instantiated parametric arena through the streaming
/// builder, state by state, reproduces it exactly.
#[test]
fn selfish_mining_model_streams_into_identical_arena() {
    let model = ParametricModel::build(2, 1, 3)
        .unwrap()
        .instantiate(0.3, 0.5)
        .unwrap();
    let mdp = model.mdp();

    let mut rebuilt = sm_mdp::CsrMdpBuilder::new();
    for state in 0..mdp.num_states() {
        rebuilt.begin_state();
        for action in 0..mdp.num_actions(state) {
            let (targets, probs) = mdp.successors(state, action);
            let transitions: Vec<(usize, f64)> = targets
                .iter()
                .map(|&t| t as usize)
                .zip(probs.iter().copied())
                .collect();
            rebuilt
                .add_action(mdp.action_name(state, action), &transitions)
                .unwrap();
        }
    }
    let rebuilt = rebuilt.finish(mdp.initial_state()).unwrap();
    assert_eq!(mdp, &rebuilt);
    assert_eq!(mdp.layout().row_ptr(), rebuilt.layout().row_ptr());
    assert_eq!(mdp.layout().col(), rebuilt.layout().col());
}

/// The production evaluator of a fixed strategy's revenue (the fused
/// iterative gain sweeps behind `SelfishMiningModel::expected_relative_revenue`)
/// agrees with the exact dense evaluation of the oracle on real
/// selfish-mining chains: the d = 2, f = 1, l = 4 arena of every default
/// scenario, under the certified strategy at γ = 0.5. The induced chains
/// have transient states, which the small hand-built chains of the unit
/// tests do not exercise.
#[test]
fn iterative_revenue_matches_exact_gains_on_selfish_mining_chains() {
    use selfish_mining::experiments::attack_curve;
    use selfish_mining::{AnalysisConfig, AttackScenario};
    use sm_oracle::{long_run_average_reward, ChainAnalysis};

    let mut chains_with_transient_states = 0;
    for scenario in AttackScenario::default_family() {
        let family = ParametricModel::build_scenario(scenario, 2, 1, 4).unwrap();
        let config = AnalysisConfig::with_epsilon(1e-3);
        for solve in attack_curve(&family, 0.5, &[0.1, 0.3], false, config).unwrap() {
            let model = family.instantiate(solve.p, solve.gamma).unwrap();
            let strategy = &solve.strategy;
            let iterative = model.expected_relative_revenue(strategy).unwrap();

            let chain = model.mdp().induced_chain(strategy).unwrap();
            let initial = model.mdp().initial_state();
            let exact_gain =
                |per_state: &[f64]| long_run_average_reward(&chain, per_state).unwrap()[initial];
            let (adversary, honest) = model.strategy_rewards(strategy).unwrap();
            let (adversary, honest) = (exact_gain(&adversary), exact_gain(&honest));
            let exact = adversary / (adversary + honest);
            assert!(
                (iterative - exact).abs() < 1e-8,
                "{scenario:?} p={}: iterative {iterative} vs exact {exact}",
                solve.p
            );
            if !chain.classify().transient_states().is_empty() {
                chains_with_transient_states += 1;
            }
        }
    }
    assert!(chains_with_transient_states > 0);
}
