//! Property-based tests over the workspace's core invariants, sweeping
//! randomly generated parameters and models.
//!
//! The random inputs come from the workspace's deterministic seeded PRNG
//! (the in-tree `rand` shim) instead of an external property-testing
//! framework, so the suite runs in offline environments; every case is
//! reproducible from the fixed seeds. Case counts match the former proptest
//! configuration (24 per property).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfish_mining::{
    available_actions, successors_in, AttackParams, AttackScenario, Outcome, ParametricModel,
    SelfishMiningModel, SmState,
};
use sm_mdp::{CsrMdpBuilder, RelativeValueIteration};
use sm_oracle::{LinearProgrammingSolver, PolicyIteration, TransitionRewards};
use std::collections::HashMap;

/// A varied grid of small attack parameter sets (the shim for the former
/// proptest generator; 24 cases like the original configuration).
fn attack_params_grid() -> Vec<AttackParams> {
    let mut rng = StdRng::seed_from_u64(20240729);
    let mut cases = Vec::new();
    for depth in 1..=2usize {
        for forks in 1..=2usize {
            for max_len in 1..=3usize {
                for _ in 0..2 {
                    let p = rng.gen_range(0.0..0.9);
                    let gamma = rng.gen_range(0.0..1.0);
                    cases.push(
                        AttackParams::new(p, gamma, depth, forks, max_len)
                            .expect("ranges are valid"),
                    );
                }
            }
        }
    }
    cases
}

/// The model at `params`: the parametric arena of its topology, instantiated.
fn build(params: &AttackParams) -> SelfishMiningModel {
    ParametricModel::build(params.depth, params.forks_per_block, params.max_fork_length)
        .unwrap()
        .instantiate(params.p, params.gamma)
        .unwrap()
}

/// Every action of every reachable state has a transition distribution
/// summing to 1 with consistent successor states.
#[test]
fn transition_distributions_are_stochastic() {
    for params in attack_params_grid() {
        let model = build(&params);
        for index in 0..model.num_states() {
            let state = model.state(index);
            for action in available_actions(&params, state) {
                let outcomes =
                    successors_in(&AttackScenario::Optimal, &params, state, &action).unwrap();
                let total: f64 = outcomes.iter().map(|o| o.probability).sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "action {action} sums to {total}"
                );
                for outcome in &outcomes {
                    assert!(outcome.state.is_consistent(&params));
                    assert!(outcome.probability > 0.0);
                }
            }
        }
    }
}

/// The optimal mean payoff MP*_beta is monotonically non-increasing in
/// beta (the monotonicity that makes the search over beta sound).
#[test]
fn optimal_mean_payoff_is_monotone_in_beta() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..24 {
        let p = rng.gen_range(0.05..0.45);
        let gamma = rng.gen_range(0.0..1.0);
        let params = AttackParams::new(p, gamma, 2, 1, 3).unwrap();
        let model = build(&params);
        let solver = RelativeValueIteration::with_epsilon(1e-7);
        let mut previous = f64::INFINITY;
        for beta in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let rewards = model.beta_rewards(beta);
            let gain = solver.solve(model.mdp(), &rewards).unwrap().gain;
            assert!(
                gain <= previous + 1e-5,
                "MP*_beta increased: p={p}, gamma={gamma}, beta={beta}, {gain} > {previous}"
            );
            previous = gain;
        }
    }
}

/// The ERRev of any fixed strategy lies in [0, 1], and the optimal one is
/// at least as large as the always-mine strategy's.
#[test]
fn expected_relative_revenue_is_well_formed() {
    for params in attack_params_grid() {
        let model = build(&params);
        let always_mine = sm_mdp::PositionalStrategy::uniform_first_action(model.num_states());
        let revenue = model.expected_relative_revenue(&always_mine).unwrap();
        assert!(
            (0.0..=1.0).contains(&revenue),
            "revenue {revenue} out of range for {params:?}"
        );
    }
}

/// Across the whole random parameter grid and every masked edge of the
/// parameter square, each row of the instantiated parametric arena, with its
/// zero-probability slots dropped, is the transition function's row merged
/// by target — bit for bit — and carries the row's expected block counts.
#[test]
fn parametric_instantiation_matches_fresh_build_on_the_grid() {
    let mut cases = attack_params_grid();
    for (d, f, l) in [(1, 1, 2), (2, 1, 3), (2, 2, 3)] {
        for (p, gamma) in [(0.0, 0.5), (0.3, 0.0), (0.3, 1.0), (1.0, 0.5), (0.0, 0.0)] {
            cases.push(AttackParams::new(p, gamma, d, f, l).unwrap());
        }
    }
    for params in cases {
        let model = build(&params);
        let mdp = model.mdp();
        mdp.validate().unwrap();
        let index_of: HashMap<&SmState, usize> = (0..model.num_states())
            .map(|s| (model.state(s), s))
            .collect();
        for s in 0..model.num_states() {
            let state = model.state(s);
            let actions = available_actions(&params, state);
            assert_eq!(model.actions_of(s), actions.as_slice(), "{params:?}");
            for (a, action) in actions.iter().enumerate() {
                // Outcomes merged by target: successor-sorted (stable, so
                // duplicates keep their discovery order) and summed.
                let outcomes =
                    successors_in(&AttackScenario::Optimal, &params, state, action).unwrap();
                let mut row: Vec<(u32, f64)> = outcomes
                    .iter()
                    .map(|o| (index_of[&o.state] as u32, o.probability))
                    .collect();
                row.sort_by_key(|&(target, _)| target);
                let mut merged: Vec<(u32, f64)> = Vec::new();
                for (target, p) in row {
                    match merged.last_mut() {
                        Some(last) if last.0 == target => last.1 += p,
                        _ => merged.push((target, p)),
                    }
                }
                let (cols, probs) = mdp.successors(s, a);
                let kept: Vec<(u32, f64)> = cols
                    .iter()
                    .copied()
                    .zip(probs.iter().copied())
                    .filter(|&(_, p)| p != 0.0)
                    .collect();
                let bits = |row: &[(u32, f64)]| -> Vec<(u32, u64)> {
                    row.iter().map(|&(t, p)| (t, p.to_bits())).collect()
                };
                assert_eq!(bits(&kept), bits(&merged), "{params:?} state {s} {action}");

                let expected = |count: fn(&Outcome) -> u32| -> f64 {
                    outcomes
                        .iter()
                        .fold(0.0, |acc, o| acc + o.probability * f64::from(count(o)))
                };
                let adversary = expected(|o| o.rewards.adversary);
                let honest = expected(|o| o.rewards.honest);
                let pair = mdp.layout().pair_index(s, a);
                assert_eq!(
                    model.adversary_rewards()[pair].to_bits(),
                    adversary.to_bits(),
                    "{params:?} state {s} {action}"
                );
                assert_eq!(
                    model.honest_rewards()[pair].to_bits(),
                    honest.to_bits(),
                    "{params:?} state {s} {action}"
                );
            }
        }
    }
}

/// On random small MDPs the three mean-payoff solvers agree.
#[test]
fn mean_payoff_solvers_agree_on_random_mdps() {
    let mut rng = StdRng::seed_from_u64(123456789);
    for case in 0..24 {
        // A 3-state MDP with 2 actions per state and deterministic-or-split
        // transitions derived from the generated parameters.
        let split = rng.gen_range(0.1..0.9);
        let seed_rewards: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut builder = CsrMdpBuilder::new();
        for state in 0..3usize {
            builder.begin_state();
            builder
                .add_action("next", &[((state + 1) % 3, 1.0)])
                .unwrap();
            builder
                .add_action("split", &[(state, split), ((state + 2) % 3, 1.0 - split)])
                .unwrap();
        }
        let mdp = builder.finish(0).unwrap();
        let rewards = TransitionRewards::from_fn(&mdp, |s, a, _| seed_rewards[s * 2 + a]);
        let vi = RelativeValueIteration::with_epsilon(1e-9)
            .solve(&mdp, &rewards.expected_per_pair(&mdp))
            .unwrap()
            .gain;
        let (pi, _) = PolicyIteration::default().solve(&mdp, &rewards).unwrap();
        let (lp, _) = LinearProgrammingSolver::default()
            .solve(&mdp, &rewards)
            .unwrap();
        assert!((vi - pi).abs() < 1e-5, "case {case}: vi {vi} vs pi {pi}");
        assert!((lp - pi).abs() < 1e-5, "case {case}: lp {lp} vs pi {pi}");
    }
}
