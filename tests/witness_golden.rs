//! Golden pins of the Monte-Carlo witness: fixed-seed simulator replicas and
//! estimator means, recorded once and compared bit for bit.
//!
//! The conformance witness replays certified strategies in the chain
//! simulator under every consensus backend. Its exact outputs — the block
//! counts of a seeded replica and the `f64` bits of an estimated mean — are
//! a pure function of the simulator's bookkeeping, the simulation RNG's draw
//! order and every backend's proof hashing. Any change to those layers that
//! is meant to be an optimisation must leave these values untouched.
//!
//! Coverage: the exported (d = 2, f = 1) strategy under each of the six
//! default backends, the estimator mean per backend, and a (d = 3, f = 2)
//! shape driven by a scripted strategy that releases from every slot and
//! depth (partial releases, re-anchored remainders, invalid requests), under
//! both mining regimes.

use selfish_mining::experiments::CurveTracker;
use selfish_mining::{AnalysisConfig, ParametricModel, StrategyExport};
use sm_chain::{
    AdversaryAction, AdversaryStrategy, AdversaryView, ConsensusBackend, MinerClass, MiningRegime,
    SimulationConfig, Simulator, TableStrategy, UnknownViewPolicy,
};
use sm_conformance::{estimate_revenue, EstimatorConfig};

/// The ε-optimal (d = 2, f = 1, l = 4) strategy at p = 0.3, γ = 0.5, exported
/// to a simulator table — the strategy the `conformance-d2f1` witness runs.
fn d2f1_table() -> TableStrategy {
    let family = ParametricModel::build(2, 1, 4).unwrap();
    let mut tracker = CurveTracker::new(&family, 0.5, true, AnalysisConfig::with_epsilon(1e-3));
    let result = tracker.advance(0.3).unwrap();
    let model = tracker.into_arena().unwrap();
    StrategyExport::new(&model)
        .table(&result.strategy, UnknownViewPolicy::Wait)
        .unwrap()
}

fn d2f1_config(steps: usize, seed: u64) -> SimulationConfig {
    SimulationConfig {
        p: 0.3,
        gamma: 0.5,
        depth: 2,
        forks_per_block: 1,
        max_fork_length: 4,
        steps,
        seed,
        mining: MiningRegime::AllSlots,
    }
}

/// `(honest blocks, adversary blocks, tip height)` of one seeded run.
fn run(
    config: SimulationConfig,
    strategy: &mut dyn AdversaryStrategy,
    backend: ConsensusBackend,
    source_seed: u64,
) -> (u64, u64, u64) {
    let mut source = backend.source(config.p, source_seed).unwrap();
    let report = Simulator::new(config).run_with_source(strategy, source.as_mut());
    (
        report.honest_blocks,
        report.adversary_blocks,
        report.final_height,
    )
}

/// A deterministic strategy that exercises every bookkeeping path of the
/// simulator: it hashes each view it sees into a running state and uses it
/// to wait, release a prefix of any fork at any depth and slot, or request
/// an invalid release (which the simulator treats as a wait).
#[derive(Debug, Clone)]
struct Scripted {
    state: u64,
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl AdversaryStrategy for Scripted {
    fn decide(&mut self, view: &AdversaryView) -> AdversaryAction {
        let mut fingerprint =
            u64::from(view.pending_honest_block) << 1 | u64::from(view.just_mined);
        for &len in view.fork_lengths.iter().flatten() {
            fingerprint = fingerprint.wrapping_mul(31).wrapping_add(len as u64);
        }
        for &owner in &view.owners {
            fingerprint = fingerprint.wrapping_mul(31) + u64::from(owner == MinerClass::Adversary);
        }
        self.state = mix(self.state ^ fingerprint);
        let choice = self.state % 16;
        if choice < 7 {
            return AdversaryAction::Wait;
        }
        if choice == 15 {
            // Out of range on purpose: depth beyond the window.
            return AdversaryAction::Release {
                depth: view.fork_lengths.len() + 1,
                fork: 1,
                length: 1,
            };
        }
        let forks: Vec<(usize, usize, usize)> = view
            .fork_lengths
            .iter()
            .enumerate()
            .flat_map(|(depth, row)| {
                row.iter()
                    .enumerate()
                    .filter(|&(_, &len)| len > 0)
                    .map(move |(fork, &len)| (depth + 1, fork + 1, len))
            })
            .collect();
        if forks.is_empty() {
            return AdversaryAction::Wait;
        }
        let (depth, fork, len) = forks[(self.state >> 8) as usize % forks.len()];
        AdversaryAction::Release {
            depth,
            fork,
            length: 1 + (self.state >> 20) as usize % len,
        }
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

fn d3f2_config(mining: MiningRegime, seed: u64) -> SimulationConfig {
    SimulationConfig {
        p: 0.35,
        gamma: 0.5,
        depth: 3,
        forks_per_block: 2,
        max_fork_length: 3,
        steps: 20_000,
        seed,
        mining,
    }
}

#[test]
fn d2f1_replica_per_backend_is_pinned() {
    let table = d2f1_table();
    let actual: Vec<(String, (u64, u64, u64), u64)> = ConsensusBackend::default_family()
        .into_iter()
        .map(|backend| {
            let mut strategy = table.clone();
            let report = run(d2f1_config(20_000, 0x5EED), &mut strategy, backend, 0xA11CE);
            (backend.label(), report, strategy.unknown_views())
        })
        .collect();
    let expected = [
        ("bernoulli", (7665, 5174, 12841), 0),
        ("pow-lottery", (7598, 5213, 12813), 0),
        ("postake", (7425, 5256, 12683), 0),
        ("pospace", (7510, 5242, 12754), 0),
        ("post(2)", (7563, 5212, 12777), 0),
        ("vdf", (7584, 5231, 12817), 0),
    ]
    .map(|(label, report, misses)| (label.to_string(), report, misses));
    assert_eq!(actual, expected);
}

#[test]
fn d2f1_estimate_mean_per_backend_is_pinned() {
    let table = d2f1_table();
    let config = EstimatorConfig {
        simulation: d2f1_config(4_000, 7),
        min_replicas: 4,
        batch: 4,
        max_replicas: 8,
        ..EstimatorConfig::default()
    };
    let actual: Vec<(String, u64, usize)> = ConsensusBackend::default_family()
        .into_iter()
        .map(|backend| {
            let estimate = estimate_revenue(&config, &table, backend).unwrap();
            (backend.label(), estimate.mean.to_bits(), estimate.replicas)
        })
        .collect();
    let expected = [
        ("bernoulli", 4601132662145581446, 8),
        ("pow-lottery", 4601055483139074484, 8),
        ("postake", 4601095108257257078, 8),
        ("pospace", 4601051943105364496, 8),
        ("post(2)", 4601120444279428413, 8),
        ("vdf", 4601036928886398951, 8),
    ]
    .map(|(label, bits, replicas)| (label.to_string(), bits, replicas));
    assert_eq!(actual, expected);
}

#[test]
fn d3f2_scripted_runs_are_pinned_under_both_regimes() {
    let mut actual = Vec::new();
    for mining in [MiningRegime::AllSlots, MiningRegime::TipOnly] {
        for backend in [
            ConsensusBackend::Bernoulli,
            ConsensusBackend::PoStake,
            ConsensusBackend::Post { vdfs: 2 },
        ] {
            let mut strategy = Scripted { state: 0xD3F2 };
            let report = run(d3f2_config(mining, 0xC0FFEE), &mut strategy, backend, 99);
            actual.push((format!("{mining:?}"), backend.label(), report));
        }
    }
    let expected = [
        ("AllSlots", "bernoulli", (4832, 3668, 8503)),
        ("AllSlots", "postake", (4841, 3754, 8598)),
        ("AllSlots", "post(2)", (8069, 4646, 12718)),
        ("TipOnly", "bernoulli", (11528, 4480, 16011)),
        ("TipOnly", "postake", (11589, 4514, 16106)),
        ("TipOnly", "post(2)", (11614, 4450, 16067)),
    ]
    .map(|(mining, label, report)| (mining.to_string(), label.to_string(), report));
    assert_eq!(actual, expected);
}

#[test]
fn d2f1_tip_only_replica_is_pinned() {
    let table = d2f1_table();
    let mut strategy = table.clone();
    let config = SimulationConfig {
        mining: MiningRegime::TipOnly,
        ..d2f1_config(20_000, 0x71B)
    };
    let actual = (
        run(config, &mut strategy, ConsensusBackend::Bernoulli, 1),
        strategy.unknown_views(),
    );
    let expected = ((10858, 4481, 15341), 0);
    assert_eq!(actual, expected);
}
