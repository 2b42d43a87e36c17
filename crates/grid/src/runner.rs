//! The orchestrator itself: scan → schedule → execute → merge.
//!
//! A run is a bounded loop of *rounds*. Every round scans the artifact
//! directory ([`scan_grid`]) — verifying each file's fingerprint and
//! coordinates — and schedules only the points that are still missing or
//! corrupt, grouped into per-curve **shards**. A shard job replays its
//! curve's canonical warm-start prefix and writes one durable artifact per
//! assigned point (tmp-file + rename, so a crash never leaves a half-written
//! file under the final name); failed shards are retried in place with
//! exponential backoff ([`RetryPolicy`]). When a scan finds
//! every point durable, the artifacts are folded **in canonical point
//! order** into one [`ConformanceReport`] — byte-identical for any schedule,
//! crash or retry history.

use crate::artifact::{artifact_file_name, PointArtifact};
use crate::fault::{FaultKind, GridFaultPlan};
use crate::spec::{GridError, GridSpec};
use selfish_mining::experiments::CurveTracker;
use selfish_mining::{
    run_budgeted_jobs, AnalysisConfig, ParametricModel, SolverParallelism, StrategyExport,
};
use sm_conformance::{certify_point, ConformanceReport};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Bounded-retry policy with exponential backoff for the shard jobs of
/// [`run_grid`]: attempt `k` (1-based) of a failed job is retried after
/// `backoff · 2^(k−1)`, capped at [`RetryPolicy::max_backoff`], until
/// [`RetryPolicy::max_attempts`] attempts have been spent.
///
/// The policy only shapes *when* work re-runs, never *what* it computes —
/// every job in this workspace is deterministic, so a retried job returns
/// the same bits as an uninterrupted one and the retry history is invisible
/// in the results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts a job may spend (first try included); at least 1 is
    /// always spent.
    pub max_attempts: usize,
    /// Backoff before the first retry; doubled per subsequent retry.
    pub backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, 25 ms initial backoff, capped at one second — sized
    /// for transient local failures (I/O hiccups, injected test faults), not
    /// for waiting out a remote outage.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The backoff slept before retry number `retry` (1-based):
    /// `backoff · 2^(retry−1)`, saturating, capped at
    /// [`RetryPolicy::max_backoff`].
    pub fn delay_before(&self, retry: usize) -> Duration {
        let exponent = u32::try_from(retry.saturating_sub(1)).unwrap_or(20).min(20);
        let factor = 1_u32 << exponent;
        self.backoff.saturating_mul(factor).min(self.max_backoff)
    }
}

/// Runs `job` until it succeeds or the policy's attempt budget is spent,
/// sleeping the policy's backoff between attempts; returns the first success
/// or the *last* error. The closure receives the 0-based attempt number so
/// fault-injection harnesses can fail specific attempts deterministically.
pub(crate) fn run_with_retry<T, E, F>(policy: &RetryPolicy, mut job: F) -> Result<T, E>
where
    F: FnMut(usize) -> Result<T, E>,
{
    let attempts = policy.max_attempts.max(1);
    let mut attempt = 0;
    loop {
        match job(attempt) {
            Ok(value) => return Ok(value),
            Err(error) => {
                attempt += 1;
                if attempt >= attempts {
                    return Err(error);
                }
                let delay = policy.delay_before(attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
    }
}

/// Orchestration knobs of one grid run — everything that shapes *how* the
/// grid is computed without ever affecting *what* it computes: the merged
/// report is bit-identical for any combination of these.
#[derive(Debug, Clone, PartialEq)]
pub struct GridOptions {
    /// Artifact directory (created if absent). Pointing a run at the
    /// directory of a previous run *is* resume: durable points are reused,
    /// the rest are scheduled.
    pub dir: PathBuf,
    /// Global thread budget of the shard pool (outer shard jobs plus
    /// intra-solve threads, exactly like `SweepConfig::workers`); `0` uses
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Points per shard within one curve; `0` = the whole curve (one
    /// warm-start replay per curve, the cheapest schedule). Smaller shards
    /// bound the work lost to a mid-shard crash at the cost of replaying
    /// the curve prefix per shard.
    pub shard_points: usize,
    /// Bounded retry with exponential backoff for failed shard attempts.
    pub retry: RetryPolicy,
    /// Scan → execute rounds before the run gives up; ≥ 1. Retries heal a
    /// shard that *errors*; rounds heal damage retries cannot see, e.g. a
    /// torn write that only the next scan's fingerprint check exposes.
    pub max_rounds: usize,
    /// Deterministic fault injection (tests and CI smoke runs only);
    /// production runs leave this `None`.
    pub fault_plan: Option<GridFaultPlan>,
}

impl GridOptions {
    /// Defaults for `dir`: auto thread budget, whole-curve shards, the
    /// default retry policy (3 attempts, 25 ms backoff), 3 rounds, no
    /// faults.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        GridOptions {
            dir: dir.into(),
            workers: 0,
            shard_points: 0,
            retry: RetryPolicy::default(),
            max_rounds: 3,
            fault_plan: None,
        }
    }
}

/// Durability state of one grid point in an artifact directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointState {
    /// A verified artifact exists: parseable, fingerprint and coordinates
    /// check out.
    Complete,
    /// No artifact file exists under the point's canonical name.
    Missing,
    /// A file exists but fails verification (truncated, torn, bit-flipped,
    /// or carrying the wrong coordinates); it is re-scheduled, never merged.
    Corrupt,
}

/// Result of scanning an artifact directory against a [`GridSpec`]: one
/// [`PointState`] per canonical point, with the verified payloads retained
/// so a complete scan can merge without re-reading anything.
#[derive(Debug)]
pub struct GridScan {
    states: Vec<PointState>,
    points: Vec<Option<PointArtifact>>,
}

impl GridScan {
    /// Per-point durability states, in canonical point order.
    pub fn states(&self) -> &[PointState] {
        &self.states
    }

    /// Number of verified points.
    pub fn complete(&self) -> usize {
        self.count(PointState::Complete)
    }

    /// Number of points with no artifact.
    pub fn missing(&self) -> usize {
        self.count(PointState::Missing)
    }

    /// Number of points whose artifact failed verification.
    pub fn corrupt(&self) -> usize {
        self.count(PointState::Corrupt)
    }

    /// Whether every point is durable and verified.
    pub fn is_complete(&self) -> bool {
        self.states
            .iter()
            .all(|&state| state == PointState::Complete)
    }

    /// Canonical indices still needing work (missing or corrupt), ascending.
    pub fn pending(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|&(_, &state)| state != PointState::Complete)
            .map(|(index, _)| index)
            .collect()
    }

    /// Folds the verified artifacts into the canonical report.
    ///
    /// # Errors
    ///
    /// [`GridError::Incomplete`] when any point is missing or corrupt.
    pub fn into_report(self) -> Result<ConformanceReport, GridError> {
        let pending = self.pending().len();
        if pending > 0 {
            return Err(GridError::Incomplete {
                pending,
                last_error: None,
            });
        }
        let points = self
            .points
            .into_iter()
            .map(|artifact| {
                artifact
                    .map(|artifact| artifact.point)
                    .ok_or(GridError::Internal {
                        what: "complete scan lost a verified payload",
                    })
            })
            .collect::<Result<Vec<_>, GridError>>()?;
        Ok(ConformanceReport { points })
    }

    fn count(&self, state: PointState) -> usize {
        self.states.iter().filter(|&&s| s == state).count()
    }
}

/// Outcome of a completed [`run_grid`]: the merged report plus the run's
/// orchestration statistics. Only the statistics depend on the schedule —
/// the report never does.
#[derive(Debug)]
pub struct GridOutcome {
    /// The merged report, byte-identical for any schedule.
    pub report: ConformanceReport,
    /// Points that were already durable and verified before this run.
    pub reused: usize,
    /// Clean point artifacts written by this run (rewrites included).
    pub produced: usize,
    /// Failed shard attempts that were retried in place.
    pub retries: usize,
    /// Scan → execute rounds this run used (1 = nothing to heal twice).
    pub rounds: usize,
}

/// Scans `dir` against `spec`: for every canonical point, looks up the
/// content-addressed artifact file, parses it, verifies its fingerprint and
/// cross-checks its coordinates against the spec. Verification failures
/// mark the point [`PointState::Corrupt`] — they are diagnoses, not errors;
/// a scan itself only fails on a broken spec.
///
/// # Errors
///
/// [`GridError::Conformance`] when the spec itself is invalid.
pub fn scan_grid(spec: &GridSpec, dir: &Path) -> Result<GridScan, GridError> {
    spec.validate()?;
    let digest = spec.digest();
    let total = spec.num_points();
    let mut states = Vec::with_capacity(total);
    let mut points = Vec::with_capacity(total);
    for index in 0..total {
        let coordinates = spec.coordinates(index).ok_or(GridError::Internal {
            what: "point index fell outside its own grid",
        })?;
        let path = dir.join(artifact_file_name(
            digest,
            coordinates.curve,
            coordinates.p_index,
        ));
        let state = match std::fs::read_to_string(&path) {
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                (PointState::Missing, None)
            }
            // An unreadable file is indistinguishable from a torn one for
            // our purposes: re-schedule the point.
            Err(_) => (PointState::Corrupt, None),
            Ok(contents) => match PointArtifact::from_json(&contents) {
                Err(_) => (PointState::Corrupt, None),
                Ok(artifact) => {
                    let point = &artifact.point;
                    let matches = artifact.config == digest
                        && artifact.curve == coordinates.curve
                        && artifact.p_index == coordinates.p_index
                        && point.p.to_bits() == coordinates.p.to_bits()
                        && point.gamma.to_bits() == coordinates.gamma.to_bits()
                        && point.scenario == coordinates.scenario.label()
                        && point.depth == coordinates.depth
                        && point.forks == coordinates.forks
                        && point.max_fork_length == spec.max_fork_length
                        && point.estimates.len() == spec.settings.backends.len()
                        && point
                            .estimates
                            .iter()
                            .zip(&spec.settings.backends)
                            .all(|(estimate, &backend)| estimate.backend == backend);
                    if matches {
                        (PointState::Complete, Some(artifact))
                    } else {
                        (PointState::Corrupt, None)
                    }
                }
            },
        };
        states.push(state.0);
        points.push(state.1);
    }
    Ok(GridScan { states, points })
}

/// Merges a *complete* artifact directory into the canonical report without
/// running anything — the read-only counterpart of [`run_grid`] (e.g. for
/// inspecting a nightly's uploaded artifacts).
///
/// # Errors
///
/// [`GridError::Incomplete`] when any point is missing or corrupt, and scan
/// errors as in [`scan_grid`].
pub fn merge_grid(spec: &GridSpec, dir: &Path) -> Result<ConformanceReport, GridError> {
    scan_grid(spec, dir)?.into_report()
}

/// One unit of scheduled work: a contiguous run of missing points of one
/// curve, with the curve's warm-start prefix replayed up to the last target.
#[derive(Debug)]
struct Shard {
    curve: usize,
    /// Target `p` indices, ascending.
    targets: Vec<usize>,
}

/// Runs the grid to completion over `options.dir`: scan, schedule the
/// missing/corrupt points as per-curve shards with retry + backoff, rescan,
/// and merge once everything is durable — see the crate docs for the full
/// contract. Re-running over a completed directory is a verified no-op;
/// pointing at a dead run's directory resumes it.
///
/// # Errors
///
/// [`GridError::Incomplete`] when the retry/round budgets are spent with
/// points still missing; spec validation, I/O and solver errors as they
/// surface.
pub fn run_grid(spec: &GridSpec, options: &GridOptions) -> Result<GridOutcome, GridError> {
    spec.validate()?;
    if options.max_rounds == 0 {
        return Err(GridError::InvalidOptions {
            name: "max_rounds",
            constraint: "must allow at least one scan/execute round",
        });
    }
    std::fs::create_dir_all(&options.dir).map_err(|error| GridError::Io {
        path: options.dir.display().to_string(),
        message: error.to_string(),
    })?;
    let digest = spec.digest();
    let families = spec.build_scenario_families()?;
    let budget = SolverParallelism::threads(options.workers);

    let mut reused = None;
    let mut produced = 0;
    let mut retries = 0;
    let mut last_error: Option<String> = None;
    let mut rounds = 0;
    loop {
        let scan = scan_grid(spec, &options.dir)?;
        if reused.is_none() {
            reused = Some(scan.complete());
        }
        if scan.is_complete() {
            return Ok(GridOutcome {
                report: scan.into_report()?,
                reused: reused.unwrap_or(0),
                produced,
                retries,
                rounds: rounds.max(1),
            });
        }
        if rounds >= options.max_rounds {
            return Err(GridError::Incomplete {
                pending: scan.pending().len(),
                last_error,
            });
        }
        rounds += 1;
        // A corrupt file must not shadow the clean rewrite on filesystems
        // where rename-over-existing is not atomic; drop it first.
        for (index, &state) in scan.states().iter().enumerate() {
            if state != PointState::Corrupt {
                continue;
            }
            if let Some(coordinates) = spec.coordinates(index) {
                let path = options.dir.join(artifact_file_name(
                    digest,
                    coordinates.curve,
                    coordinates.p_index,
                ));
                std::fs::remove_file(&path).map_err(|error| GridError::Io {
                    path: path.display().to_string(),
                    message: error.to_string(),
                })?;
            }
        }
        let shards = plan_shards(spec, &scan.pending(), options.shard_points);
        let results = run_budgeted_jobs(budget, shards.len(), |index, allowance| {
            let shard = shards.get(index).ok_or(GridError::Internal {
                what: "shard index fell outside the schedule",
            })?;
            run_with_retry(&options.retry, |attempt| {
                // The fault clock is cumulative across rounds, so a fault
                // with `attempts: 1` fires once per *run* and a later round
                // heals it, rather than re-firing on every rescan.
                let fault_clock = (rounds - 1) * options.retry.max_attempts.max(1) + attempt;
                run_shard_attempt(
                    spec,
                    &families,
                    digest,
                    options,
                    shard,
                    fault_clock,
                    allowance,
                )
                .map(|written| (written, attempt))
            })
        });
        for outcome in results {
            match outcome {
                Ok((written, attempts_used)) => {
                    produced += written;
                    retries += attempts_used;
                }
                Err(error) => {
                    retries += options.retry.max_attempts.max(1) - 1;
                    last_error = Some(error.to_string());
                }
            }
        }
    }
}

/// Groups pending point indices into per-curve shards of at most
/// `shard_points` targets (`0` = unbounded, i.e. one shard per curve).
fn plan_shards(spec: &GridSpec, pending: &[usize], shard_points: usize) -> Vec<Shard> {
    let per_curve = spec.ps.len().max(1);
    let chunk = if shard_points == 0 {
        per_curve
    } else {
        shard_points
    };
    let mut shards: Vec<Shard> = Vec::new();
    for &index in pending {
        let curve = index / per_curve;
        let p_index = index % per_curve;
        let open = shards
            .last()
            .is_some_and(|shard| shard.curve == curve && shard.targets.len() < chunk);
        if open {
            if let Some(shard) = shards.last_mut() {
                shard.targets.push(p_index);
                continue;
            }
        }
        shards.push(Shard {
            curve,
            targets: vec![p_index],
        });
    }
    shards
}

/// One attempt at one shard: replay the curve's canonical warm-start prefix
/// (`p` indices `0..=last_target`), certify the assigned points and write
/// their artifacts durably (tmp + rename). Returns the number of clean
/// artifacts written. `fault_clock` is the run-cumulative attempt number
/// faults are matched against (in-place retries and later rounds both
/// advance it).
fn run_shard_attempt(
    spec: &GridSpec,
    families: &[ParametricModel],
    digest: u64,
    options: &GridOptions,
    shard: &Shard,
    fault_clock: usize,
    allowance: SolverParallelism,
) -> Result<usize, GridError> {
    let num_families = spec.num_families().max(1);
    let family = families
        .get(shard.curve % num_families)
        .ok_or(GridError::Internal {
            what: "curve index names a family outside the spec",
        })?;
    let gamma = *spec
        .gammas
        .get(shard.curve / num_families)
        .ok_or(GridError::Internal {
            what: "curve index names a gamma outside the spec",
        })?;
    let last_target = *shard.targets.last().ok_or(GridError::Internal {
        what: "a shard must carry at least one target",
    })?;
    let config = AnalysisConfig::with_epsilon(spec.epsilon).with_parallelism(allowance);
    let mut tracker = CurveTracker::new(family, gamma, true, config);
    let export = StrategyExport::from_family(family);
    let mut written = 0;
    for p_index in 0..=last_target {
        let p = *spec.ps.get(p_index).ok_or(GridError::Internal {
            what: "shard target fell outside the p grid",
        })?;
        // Advancing through *every* prefix point — not just the targets —
        // is what reproduces the uninterrupted warm chain bit for bit.
        let solve = tracker.advance(p)?;
        if shard.targets.binary_search(&p_index).is_err() {
            continue;
        }
        let global = shard.curve * spec.ps.len() + p_index;
        let name = artifact_file_name(digest, shard.curve, p_index);
        if let Some(fault) = options
            .fault_plan
            .as_ref()
            .and_then(|plan| plan.fault_for(global, fault_clock))
        {
            match fault.kind {
                FaultKind::Kill => return Err(GridError::Injected { point: global }),
                FaultKind::Delay(delay) => std::thread::sleep(delay),
                FaultKind::Poison => {
                    let artifact = PointArtifact {
                        config: digest,
                        curve: shard.curve,
                        p_index,
                        point: certify_point(&export, &solve, &spec.settings)?,
                    };
                    let json = artifact.to_json();
                    let torn = json.get(..json.len() / 2).unwrap_or("{");
                    // Deliberately *not* the tmp+rename path: a torn write
                    // is exactly a raw partial write under the final name.
                    std::fs::write(options.dir.join(&name), torn).map_err(|error| {
                        GridError::Io {
                            path: name.clone(),
                            message: error.to_string(),
                        }
                    })?;
                    continue;
                }
            }
        }
        let artifact = PointArtifact {
            config: digest,
            curve: shard.curve,
            p_index,
            point: certify_point(&export, &solve, &spec.settings)?,
        };
        write_durably(&options.dir, &name, &artifact.to_json())?;
        written += 1;
    }
    Ok(written)
}

/// Writes `contents` to `dir/name` via a temp file + rename, so a crash in
/// the middle of the write can never leave a half-written file under the
/// final (content-addressed) name.
fn write_durably(dir: &Path, name: &str, contents: &str) -> Result<(), GridError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    let io = |target: &Path| {
        let target = target.display().to_string();
        move |error: std::io::Error| GridError::Io {
            path: target.clone(),
            message: error.to_string(),
        }
    };
    std::fs::write(&tmp, contents).map_err(io(&tmp))?;
    std::fs::rename(&tmp, &path).map_err(io(&path))?;
    Ok(())
}
