//! The grid specification: everything that *defines* the conformance grid —
//! attack grid, scenarios, `l`, `ε`, `γ`/`p` grids and estimator settings —
//! plus the canonical point enumeration and the config digest that
//! content-addresses its artifacts.

use crate::sweep::validate_grid;
use selfish_mining::{AttackScenario, ParametricModel, SelfishMiningError};
use sm_audit::Fnv1a;
use sm_conformance::{ConformanceError, ConformanceSettings};
use std::error::Error;
use std::fmt;

/// The full definition of one conformance/certification grid: the attack
/// grid, scenarios, `l` and `ε`, the `γ` and `p` grids and the Monte-Carlo
/// witness settings. Every field determines the certified bits; the thread
/// budget is [`crate::GridOptions::workers`]. Two specs with the same
/// [`GridSpec::digest`] define byte-identical grids, so their artifacts are
/// interchangeable; artifacts from any *other* digest are invisible to a
/// resume scan (the digest is part of every artifact's file name and
/// payload).
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// The `(d, f)` attack configurations, outer family axis (grid order).
    pub attack_grid: Vec<(usize, usize)>,
    /// The attack scenarios certified per `(d, f)` configuration, inner
    /// family axis (in this order).
    pub scenarios: Vec<AttackScenario>,
    /// Maximal private fork length `l`.
    pub max_fork_length: usize,
    /// Precision `ε` of the per-point certificates.
    pub epsilon: f64,
    /// Switching probabilities `γ`, outermost grid axis (input order).
    pub gammas: Vec<f64>,
    /// Adversarial shares `p`, innermost grid axis (input order). Within a
    /// curve, points warm-start each other in this order — the order is
    /// part of the grid's identity, not a presentation choice.
    pub ps: Vec<f64>,
    /// Monte-Carlo witness settings, including the consensus-backend matrix.
    pub settings: ConformanceSettings,
}

/// Canonical coordinates of one grid point, recovered from its global
/// index: the merged report lists points by `γ` (input order), then
/// `(d, f)` (grid order), then scenario (config order), then `p` (input
/// order).
#[derive(Debug, Clone, PartialEq)]
pub struct PointCoordinates {
    /// Index into [`GridSpec::gammas`].
    pub gamma_index: usize,
    /// Canonical family index: `(d, f)` outer × scenario inner.
    pub family_index: usize,
    /// Index into [`GridSpec::ps`].
    pub p_index: usize,
    /// Canonical curve index, `gamma_index · families + family_index`.
    pub curve: usize,
    /// Switching probability of the point.
    pub gamma: f64,
    /// Adversarial share of the point.
    pub p: f64,
    /// Attack scenario of the point's family.
    pub scenario: AttackScenario,
    /// Attack depth `d` of the point's family.
    pub depth: usize,
    /// Forking number `f` of the point's family.
    pub forks: usize,
}

impl GridSpec {
    /// Number of `(d, f) × scenario` families, the canonical family axis.
    pub fn num_families(&self) -> usize {
        self.attack_grid.len() * self.scenarios.len()
    }

    /// Number of `(γ, family)` curves — the warm-start unit of work.
    pub fn num_curves(&self) -> usize {
        self.gammas.len() * self.num_families()
    }

    /// Total number of grid points.
    pub fn num_points(&self) -> usize {
        self.num_curves() * self.ps.len()
    }

    /// Recovers the canonical coordinates of global point `index`, or
    /// `None` when the index is out of range (or the `p` grid is empty).
    pub fn coordinates(&self, index: usize) -> Option<PointCoordinates> {
        let scenarios = self.scenarios.len();
        if self.ps.is_empty() || scenarios == 0 {
            return None;
        }
        let curve = index / self.ps.len();
        let p_index = index % self.ps.len();
        let families = self.num_families();
        if families == 0 || curve >= self.num_curves() {
            return None;
        }
        let gamma_index = curve / families;
        let family_index = curve % families;
        let &(depth, forks) = self.attack_grid.get(family_index / scenarios)?;
        let &scenario = self.scenarios.get(family_index % scenarios)?;
        Some(PointCoordinates {
            gamma_index,
            family_index,
            p_index,
            curve,
            gamma: *self.gammas.get(gamma_index)?,
            p: *self.ps.get(p_index)?,
            scenario,
            depth,
            forks,
        })
    }

    /// Builds one parametric family per `(d, f) × scenario`, in the canonical
    /// family order: `(d, f)` outer (grid order), scenario inner. Per-point
    /// coordinates ([`GridSpec::coordinates`]) are derived from the same
    /// indices.
    ///
    /// # Errors
    ///
    /// Propagates the first model-construction error.
    pub fn build_scenario_families(&self) -> Result<Vec<ParametricModel>, SelfishMiningError> {
        self.attack_grid
            .iter()
            .flat_map(|&(depth, forks)| {
                self.scenarios.iter().map(move |&scenario| {
                    ParametricModel::build_scenario(scenario, depth, forks, self.max_fork_length)
                })
            })
            .collect()
    }

    /// Rejects an invalid spec up front: `ε` finite and positive, every
    /// `γ`/`p` in `[0, 1]` (the checks the Figure 2 sweep runs), at least one
    /// scenario and at least one consensus backend. Validating here keeps a
    /// dead-on-arrival spec from scattering half a grid of artifacts before
    /// the first real error surfaces.
    ///
    /// # Errors
    ///
    /// [`GridError::Conformance`] wrapping the rejection.
    pub fn validate(&self) -> Result<(), GridError> {
        validate_grid(self.epsilon, &self.gammas, &self.ps).map_err(ConformanceError::Analysis)?;
        if self.scenarios.is_empty() {
            return Err(GridError::Conformance(ConformanceError::InvalidConfig {
                name: "scenarios",
                constraint: "must name at least one attack scenario",
            }));
        }
        if self.settings.backends.is_empty() {
            return Err(GridError::Conformance(ConformanceError::InvalidConfig {
                name: "backends",
                constraint: "must name at least one consensus backend",
            }));
        }
        Ok(())
    }

    /// FNV-1a digest over every field that determines a point's certified
    /// bits: the attack grid, scenario labels, `l`, `ε`, both grid axes
    /// (values *and* order — the warm chain depends on the `p` prefix) and
    /// the full estimator settings including the backend matrix.
    pub fn digest(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        hasher.write_bytes(crate::GRID_SCHEMA.as_bytes());
        hash_usize(&mut hasher, self.attack_grid.len());
        for &(depth, forks) in &self.attack_grid {
            hash_usize(&mut hasher, depth);
            hash_usize(&mut hasher, forks);
        }
        hash_usize(&mut hasher, self.scenarios.len());
        for scenario in &self.scenarios {
            hash_str(&mut hasher, &scenario.label());
        }
        hash_usize(&mut hasher, self.max_fork_length);
        hasher.write_u64(self.epsilon.to_bits());
        // Slot of the retired warm-start flag (always on), kept so artifact
        // names and fingerprints stay stable across that change.
        hasher.write_u64(1);
        hash_f64s(&mut hasher, &self.gammas);
        hash_f64s(&mut hasher, &self.ps);
        hash_usize(&mut hasher, self.settings.steps);
        hasher.write_u64(self.settings.tolerance.to_bits());
        // Slots of the retired `z_score`, `certificate_slack` and
        // `statistical_slack` settings, now constants: their bits stay in
        // place so artifact names and fingerprints stay stable.
        hasher.write_u64(sm_conformance::Z_SCORE.to_bits());
        hash_usize(&mut hasher, self.settings.min_replicas);
        hash_usize(&mut hasher, self.settings.batch);
        hash_usize(&mut hasher, self.settings.max_replicas);
        hasher.write_u64(self.settings.master_seed);
        hasher.write_u64(sm_conformance::CERTIFICATE_SLACK.to_bits());
        hasher.write_u64(sm_conformance::STATISTICAL_SLACK.to_bits());
        hash_usize(&mut hasher, self.settings.backends.len());
        for backend in &self.settings.backends {
            hash_str(&mut hasher, &backend.label());
        }
        hasher.finish()
    }
}

fn hash_usize(hasher: &mut Fnv1a, value: usize) {
    hasher.write_u64(value as u64);
}

fn hash_str(hasher: &mut Fnv1a, value: &str) {
    hash_usize(hasher, value.len());
    hasher.write_bytes(value.as_bytes());
}

fn hash_f64s(hasher: &mut Fnv1a, values: &[f64]) {
    hash_usize(hasher, values.len());
    hasher.write_f64_slice(values);
}

/// Errors of the grid orchestrator.
#[derive(Debug)]
pub enum GridError {
    /// An orchestration option violates its constraint.
    InvalidOptions {
        /// Name of the offending option.
        name: &'static str,
        /// Description of the violated constraint.
        constraint: &'static str,
    },
    /// The underlying solve or Monte-Carlo witness failed.
    Conformance(ConformanceError),
    /// A filesystem operation on the artifact directory failed.
    Io {
        /// The path the operation targeted.
        path: String,
        /// The OS error description.
        message: String,
    },
    /// The run ended with unfinished points: its `max_rounds` scan → execute
    /// rounds were spent before every artifact became durable.
    Incomplete {
        /// Number of points still missing or corrupt.
        pending: usize,
        /// Description of the last shard failure, when one was recorded.
        last_error: Option<String>,
    },
    /// A [`crate::GridFaultPlan`] kill fault fired (test-only by
    /// construction: production runs carry no fault plan).
    Injected {
        /// Global index of the point whose job was killed.
        point: usize,
    },
    /// An internal invariant was violated — a bug in this crate, not in the
    /// caller's inputs.
    Internal {
        /// Description of the violated invariant.
        what: &'static str,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::InvalidOptions { name, constraint } => {
                write!(f, "grid option {name} violates constraint: {constraint}")
            }
            GridError::Conformance(err) => write!(f, "conformance error: {err}"),
            GridError::Io { path, message } => write!(f, "io error on {path}: {message}"),
            GridError::Incomplete {
                pending,
                last_error,
            } => {
                write!(f, "grid run left {pending} point(s) unfinished")?;
                if let Some(last_error) = last_error {
                    write!(f, " (last failure: {last_error})")?;
                }
                Ok(())
            }
            GridError::Injected { point } => {
                write!(f, "injected fault killed the job for point #{point}")
            }
            GridError::Internal { what } => write!(f, "internal grid invariant violated: {what}"),
        }
    }
}

impl Error for GridError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GridError::Conformance(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ConformanceError> for GridError {
    fn from(err: ConformanceError) -> Self {
        GridError::Conformance(err)
    }
}

impl From<SelfishMiningError> for GridError {
    fn from(err: SelfishMiningError) -> Self {
        GridError::Conformance(ConformanceError::Analysis(err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfish_mining::ConsensusBackend;

    fn spec() -> GridSpec {
        GridSpec {
            attack_grid: vec![(1, 1), (2, 1)],
            scenarios: vec![AttackScenario::Optimal, AttackScenario::HonestMining],
            max_fork_length: 4,
            epsilon: 1e-3,
            gammas: vec![0.0, 0.5],
            ps: vec![0.1, 0.2, 0.3],
            settings: ConformanceSettings::default(),
        }
    }

    #[test]
    fn enumeration_matches_the_conformance_report_order() {
        let spec = spec();
        assert_eq!(spec.num_families(), 4);
        assert_eq!(spec.num_curves(), 8);
        assert_eq!(spec.num_points(), 24);
        // Point 0: first γ, first (d, f), first scenario, first p.
        let first = spec.coordinates(0).unwrap();
        assert_eq!(
            (first.gamma, first.depth, first.forks, first.p),
            (0.0, 1, 1, 0.1)
        );
        assert_eq!(first.scenario, AttackScenario::Optimal);
        // Scenario is the inner family axis: the next curve over flips it.
        let second_family = spec.coordinates(3).unwrap();
        assert_eq!(second_family.scenario, AttackScenario::HonestMining);
        assert_eq!((second_family.depth, second_family.forks), (1, 1));
        // Last point: last γ, last (d, f), last scenario, last p.
        let last = spec.coordinates(23).unwrap();
        assert_eq!(
            (last.gamma, last.depth, last.forks, last.p),
            (0.5, 2, 1, 0.3)
        );
        assert_eq!(last.scenario, AttackScenario::HonestMining);
        assert!(spec.coordinates(24).is_none());
    }

    #[test]
    fn digest_tracks_result_determining_fields_only() {
        let base = spec();
        let digest = base.digest();
        assert_eq!(digest, spec().digest(), "digest must be deterministic");

        // Result-determining fields change it.
        let mut reordered = spec();
        reordered.ps.reverse();
        assert_ne!(digest, reordered.digest(), "p order feeds the warm chain");
        let mut reseeded = spec();
        reseeded.settings.master_seed ^= 1;
        assert_ne!(digest, reseeded.digest());
        let mut rebackended = spec();
        rebackended.settings.backends = vec![ConsensusBackend::Vdf];
        assert_ne!(digest, rebackended.digest());
    }

    #[test]
    fn validation_rejects_bad_specs_with_conformance_errors() {
        let mut nan_p = spec();
        nan_p.ps.push(f64::NAN);
        assert!(matches!(
            nan_p.validate(),
            Err(GridError::Conformance(ConformanceError::Analysis(
                SelfishMiningError::InvalidParameter { name: "p", .. }
            )))
        ));
        let mut no_scenarios = spec();
        no_scenarios.scenarios.clear();
        assert!(matches!(
            no_scenarios.validate(),
            Err(GridError::Conformance(ConformanceError::InvalidConfig {
                name: "scenarios",
                ..
            }))
        ));
        let mut no_backends = spec();
        no_backends.settings.backends.clear();
        assert!(matches!(
            no_backends.validate(),
            Err(GridError::Conformance(ConformanceError::InvalidConfig {
                name: "backends",
                ..
            }))
        ));
        assert!(spec().validate().is_ok());
    }
}
