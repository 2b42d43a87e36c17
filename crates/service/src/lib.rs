//! Persistent certified-analysis query service.
//!
//! The batch pipeline (`sm-grid`) answers *grids*; this crate answers
//! *questions*: "what is the certified `ERRev` interval for
//! `(scenario, backend, d, f, l, p, γ, ε)`?" — repeatedly, across the
//! lifetime of a process, with each answer riding the caches the previous
//! answers built:
//!
//! * **Arena cache** — one [`ParametricModel`] per topology
//!   `(scenario, d, f, l)`, built on first touch and shared (read-only)
//!   by every curve over it. The consensus backend is *not* part of the
//!   topology: the MDP arena is identical for every backend, so querying a
//!   known topology under a new backend is an arena hit.
//! * **Curve cache** — per `(topology, backend, γ, ε)` a *canonical anchor
//!   lattice*:
//!   the chain of warm-started certified solves at `p = 0, Δ, 2Δ, …`
//!   ([`ANCHOR_STEP`]), advanced lazily up to each query and
//!   snapshotted per anchor
//!   ([`selfish_mining::experiments::CurveTracker`]). An off-lattice `p` is
//!   answered by a warm *probe* from the last anchor at or below it, which
//!   leaves the chain untouched.
//! * **Answer memo** — certified intervals keyed by the rounded `p`
//!   ([`SHARE_QUANTUM`]), so repeats — including concurrent
//!   duplicates that queued behind the first solver — are served without
//!   solving.
//!
//! # Why a canonical lattice instead of "warm-start from whatever is cached"
//!
//! Warm-starting from the *nearest cached neighbour* would make an answer
//! depend on which queries happened to come before it: a warm-started
//! Dinkelbach run lands on a (certified, but) different bracket than a cold
//! one. The lattice removes the history dependence: the chain below a query
//! is the same fixed anchor sequence no matter what was cached, when it was
//! evicted or how many workers raced, so every answer is a **pure function
//! of the rounded query** — bit-identical across cold caches, warm caches
//! and any worker count — while still reusing the β-extrapolation and bias
//! carry-over of the sweep engine for its speed.
//!
//! # Concurrency
//!
//! The global registry lock is held only to look up/insert cache entries;
//! solves run under the affected curve's own lock. Concurrent requests for
//! the same point therefore *coalesce*: the first locks the curve and
//! solves, the rest block on the lock and find the memoized answer when
//! they acquire it. Batches are admitted through the workspace's one
//! nested-budget job loop ([`selfish_mining::run_budgeted_jobs`]): queries
//! fan out over the worker budget and surplus threads flow into the solvers'
//! intra-solve parallelism ([`SolverParallelism`]), which never changes a
//! single bit of the answers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jsonl;

use selfish_mining::experiments::{CertifiedSolve, CurveCarry, CurveTracker};
use selfish_mining::{
    run_budgeted_jobs, validate_epsilon, validate_share, AnalysisConfig, AttackParams,
    AttackScenario, CertificateScope, ConsensusBackend, ParametricModel, SelfishMiningError,
    SelfishMiningModel, SolverParallelism,
};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

/// Lattice step `Δ` of the canonical warm-start chain in `p`. Smaller
/// steps would give warmer probes at the cost of more chain solves on first
/// touch of a region.
pub const ANCHOR_STEP: f64 = 0.05;

/// Rounding quantum for `p` and `γ`: queries are snapped to the nearest
/// multiple before anything is looked up or solved, so any two queries
/// within half a quantum of each other are the *same* query.
pub const SHARE_QUANTUM: f64 = 1e-6;

/// Rounding quantum for `ε`.
pub const EPSILON_QUANTUM: f64 = 1e-9;

/// Configuration of a [`Service`]: its cache caps and thread budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Maximal number of cached topology arenas; least-recently-used
    /// entries beyond the cap are evicted.
    pub max_arenas: usize,
    /// Maximal number of cached curves (anchor chains); LRU-evicted.
    pub max_curves: usize,
    /// Maximal number of memoized answers per curve; LRU-evicted. Anchors
    /// themselves are part of the chain and never evicted individually —
    /// memory pressure on chains is handled by evicting whole curves.
    pub max_memo_points: usize,
    /// Global thread budget for [`Service::answer_batch`] (outer query
    /// fan-out plus intra-solve allowances); `0` auto-detects.
    pub workers: usize,
}

impl Default for ServiceConfig {
    /// 8 arenas, 32 curves, 4096 memoized answers per curve, automatic
    /// worker count.
    fn default() -> Self {
        ServiceConfig {
            max_arenas: 8,
            max_curves: 32,
            max_memo_points: 4096,
            workers: 0,
        }
    }
}

impl ServiceConfig {
    /// Rejects a zero cache cap.
    fn validate(&self) -> Result<(), ServiceError> {
        for (name, value) in [
            ("max_arenas", self.max_arenas),
            ("max_curves", self.max_curves),
            ("max_memo_points", self.max_memo_points),
        ] {
            if value == 0 {
                return Err(ServiceError::Config {
                    name,
                    constraint: "must be at least 1",
                });
            }
        }
        Ok(())
    }
}

/// One certified-analysis request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Attack scenario to certify.
    pub scenario: AttackScenario,
    /// Consensus backend the certificate is scoped to. The MDP arena and
    /// the solve itself are backend-independent, but the answer's
    /// [`CertificateScope`] and the curve/memo cache identity follow the
    /// backend (see [`CertifiedInterval::certificate_scope`]).
    pub backend: ConsensusBackend,
    /// Attack depth `d ≥ 1`.
    pub depth: usize,
    /// Forking number `f ≥ 1`.
    pub forks_per_block: usize,
    /// Maximal private fork length `1 ≤ l ≤ 255`.
    pub max_fork_length: usize,
    /// Adversarial resource share `p ∈ [0, 1]`.
    pub p: f64,
    /// Switching probability `γ ∈ [0, 1]`.
    pub gamma: f64,
    /// Certificate width `ε > 0`.
    pub epsilon: f64,
}

impl Default for Query {
    /// The smallest interesting paper configuration: optimal scenario,
    /// Bernoulli backend, `d = 2, f = 1, l = 4`, `p = 0.3`, `γ = 0.5`,
    /// `ε = 10⁻³`.
    fn default() -> Self {
        Query {
            scenario: AttackScenario::Optimal,
            backend: ConsensusBackend::Bernoulli,
            depth: 2,
            forks_per_block: 1,
            max_fork_length: 4,
            p: 0.3,
            gamma: 0.5,
            epsilon: 1e-3,
        }
    }
}

/// A certified `ERRev` interval — the payload of an [`Answer`]. The
/// coordinates are the *rounded* ones actually solved (see
/// [`SHARE_QUANTUM`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CertifiedInterval {
    /// Scenario the interval certifies.
    pub scenario: AttackScenario,
    /// Consensus backend the certificate is scoped to.
    pub backend: ConsensusBackend,
    /// Rounded adversarial share the point was solved at.
    pub p: f64,
    /// Rounded switching probability.
    pub gamma: f64,
    /// Rounded certificate width the solve was run at.
    pub epsilon: f64,
    /// Certified lower end: `ERRev* − ε ≤ β_low ≤ ERRev*`.
    pub beta_low: f64,
    /// Certified upper end: `ERRev* ≤ β_up`.
    pub beta_up: f64,
    /// Exact expected relative revenue of the ε-optimal strategy found.
    pub strategy_revenue: f64,
}

impl CertifiedInterval {
    fn from_solve(solve: &CertifiedSolve, backend: ConsensusBackend) -> Self {
        CertifiedInterval {
            scenario: solve.scenario,
            backend,
            p: solve.p,
            gamma: solve.gamma,
            epsilon: solve.epsilon,
            beta_low: solve.beta_low,
            beta_up: solve.beta_up,
            strategy_revenue: solve.strategy_revenue,
        }
    }

    /// How far the certificate reaches under this interval's backend:
    /// two-sided under unpredictable challenge schedules, lower-bound-only
    /// (over memoryless adversaries for `β_up`) under predictable ones.
    pub fn certificate_scope(&self) -> CertificateScope {
        CertificateScope::for_backend(self.backend)
    }
}

/// A served answer: the interval plus cache provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The certified interval.
    pub interval: CertifiedInterval,
    /// Whether the answer was served from the memo (or the anchor chain)
    /// without running a solver.
    pub cached: bool,
    /// Whether this request queued behind another request holding the same
    /// curve — i.e. it was coalesced with concurrent work instead of
    /// spawning its own.
    pub coalesced: bool,
    /// Number of canonical anchors this request advanced the curve's chain
    /// by (0 for warm queries).
    pub anchors_advanced: usize,
}

/// Errors a [`Service`] reports.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A [`ServiceConfig`] field violates its constraint.
    Config {
        /// Name of the field.
        name: &'static str,
        /// Description of the violated constraint.
        constraint: &'static str,
    },
    /// Query validation or the underlying analysis failed; query-parameter
    /// errors surface as
    /// [`SelfishMiningError::InvalidParameter`].
    Analysis(SelfishMiningError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Config { name, constraint } => {
                write!(f, "invalid service config `{name}`: {constraint}")
            }
            ServiceError::Analysis(err) => write!(f, "analysis error: {err}"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Analysis(err) => Some(err),
            ServiceError::Config { .. } => None,
        }
    }
}

impl From<SelfishMiningError> for ServiceError {
    fn from(err: SelfishMiningError) -> Self {
        ServiceError::Analysis(err)
    }
}

/// Counter snapshot of a [`Service`]'s lifetime activity
/// ([`Service::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests answered (errors excluded).
    pub queries: u64,
    /// Requests served from the memo or the anchor chain without solving.
    pub cache_hits: u64,
    /// Requests that queued behind another request on the same curve and
    /// were answered by its work.
    pub coalesced: u64,
    /// Dinkelbach solves run (anchor advances + probes).
    pub solves: u64,
    /// Canonical anchors advanced.
    pub anchor_advances: u64,
    /// Off-lattice warm probes solved.
    pub probes: u64,
    /// Topology arenas built.
    pub arena_builds: u64,
    /// Requests that found their topology arena already cached.
    pub arena_hits: u64,
    /// Curves evicted under the cache cap.
    pub curve_evictions: u64,
    /// Arenas evicted under the cache cap.
    pub arena_evictions: u64,
    /// Memoized answers evicted under the per-curve cap.
    pub memo_evictions: u64,
}

#[derive(Debug, Default)]
struct StatsCells {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    solves: AtomicU64,
    anchor_advances: AtomicU64,
    probes: AtomicU64,
    arena_builds: AtomicU64,
    arena_hits: AtomicU64,
    curve_evictions: AtomicU64,
    arena_evictions: AtomicU64,
    memo_evictions: AtomicU64,
}

impl StatsCells {
    fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServiceStats {
        let read = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        ServiceStats {
            queries: read(&self.queries),
            cache_hits: read(&self.cache_hits),
            coalesced: read(&self.coalesced),
            solves: read(&self.solves),
            anchor_advances: read(&self.anchor_advances),
            probes: read(&self.probes),
            arena_builds: read(&self.arena_builds),
            arena_hits: read(&self.arena_hits),
            curve_evictions: read(&self.curve_evictions),
            arena_evictions: read(&self.arena_evictions),
            memo_evictions: read(&self.memo_evictions),
        }
    }
}

/// Topology identity: scenario label, `d`, `f`, `l`. Deliberately
/// backend-free — every backend shares the same MDP arena.
type TopologyKey = (String, usize, usize, usize);

/// Curve identity: topology plus backend label plus quantized `γ` and `ε`.
/// The backend label (not a quantized number) keeps the axis
/// quantization-neutral: two queries hit the same curve iff their backend
/// labels are equal.
type CurveKey = (TopologyKey, String, u64, u64);

struct ArenaSlot {
    family: Option<Arc<ParametricModel>>,
}

struct ArenaEntry {
    slot: Arc<Mutex<ArenaSlot>>,
    stamp: u64,
}

struct CurveEntry {
    state: Arc<Mutex<CurveState>>,
    stamp: u64,
}

#[derive(Default)]
struct CurveState {
    /// Reusable instantiated arena buffer (refilled per solve).
    arena: Option<SelfishMiningModel>,
    /// The canonical chain: anchor `i` is `p = i · Δ`, advanced in order.
    anchors: Vec<AnchorRecord>,
    /// Served answers keyed by quantized `p`, LRU-capped.
    memo: BTreeMap<u64, MemoEntry>,
    memo_stamp: u64,
}

struct AnchorRecord {
    interval: CertifiedInterval,
    /// Warm-start snapshot *after* advancing this anchor — the state an
    /// off-lattice probe above it resumes from.
    carry: CurveCarry,
}

struct MemoEntry {
    interval: CertifiedInterval,
    stamp: u64,
}

#[derive(Default)]
struct Registry {
    stamp: u64,
    arenas: BTreeMap<TopologyKey, ArenaEntry>,
    curves: BTreeMap<CurveKey, CurveEntry>,
}

/// A fully validated, quantized request.
struct Resolved {
    key: CurveKey,
    scenario: AttackScenario,
    backend: ConsensusBackend,
    depth: usize,
    forks_per_block: usize,
    max_fork_length: usize,
    p_units: u64,
    p: f64,
    gamma: f64,
    epsilon: f64,
    anchor_index: u64,
    exact_anchor: bool,
}

/// The persistent certified-analysis query service. See the crate docs for
/// the cache architecture and the determinism contract.
pub struct Service {
    config: ServiceConfig,
    /// [`ANCHOR_STEP`] in share quanta: canonical anchor `i` sits at
    /// `p_units = i · anchor_quanta`.
    anchor_quanta: u64,
    registry: Mutex<Registry>,
    stats: StatsCells,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Service {
    /// Creates a service.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] for a zero cache cap.
    pub fn new(config: ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        Ok(Service {
            config,
            anchor_quanta: (ANCHOR_STEP / SHARE_QUANTUM).round() as u64,
            registry: Mutex::new(Registry::default()),
            stats: StatsCells::default(),
        })
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats.snapshot()
    }

    /// Number of topology arenas currently cached.
    pub fn cached_arenas(&self) -> usize {
        lock(&self.registry).arenas.len()
    }

    /// Number of curves (anchor chains) currently cached.
    pub fn cached_curves(&self) -> usize {
        lock(&self.registry).curves.len()
    }

    /// Approximate bytes held by the cached topology arenas (compact layout
    /// plus terminal tables) — the dominant resident cost of the service.
    pub fn resident_arena_bytes(&self) -> usize {
        let registry = lock(&self.registry);
        registry
            .arenas
            .values()
            .filter_map(|entry| {
                let slot = lock(&entry.slot);
                slot.family
                    .as_ref()
                    .map(|family| family.layout_bytes() + family.term_table_bytes())
            })
            .sum()
    }

    /// Answers one query with the full configured thread budget granted to
    /// the solver.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Analysis`] for invalid query parameters
    /// (rejected before any solver work) and for solver failures.
    pub fn answer(&self, query: &Query) -> Result<Answer, ServiceError> {
        self.answer_with(query, SolverParallelism::threads(self.config.workers))
    }

    /// Answers a batch of queries over the nested-budget worker pool: outer
    /// fan-out across queries, surplus threads granted to the individual
    /// solves. Results are in query order and bit-identical for any budget.
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Result<Answer, ServiceError>> {
        let budget = SolverParallelism::threads(self.config.workers);
        run_budgeted_jobs(budget, queries.len(), |index, allowance| {
            match queries.get(index) {
                Some(query) => self.answer_with(query, allowance),
                // Unreachable: the scheduler only hands out indices < len.
                None => Err(ServiceError::Config {
                    name: "batch",
                    constraint: "job index out of range",
                }),
            }
        })
    }

    /// [`Service::answer`] with an explicit intra-solve thread allowance —
    /// the entry point batch workers use. The allowance never affects the
    /// answer's bits.
    fn answer_with(
        &self,
        query: &Query,
        parallelism: SolverParallelism,
    ) -> Result<Answer, ServiceError> {
        let resolved = self.resolve(query)?;
        let (slot, curve) = self.entries(&resolved);
        let family = self.family(&slot, &resolved)?;

        // Acquire the curve. A blocked acquisition means another request is
        // working this curve right now — if it produces our answer, the
        // request was coalesced.
        let (mut state, waited) = match curve.try_lock() {
            Ok(guard) => (guard, false),
            Err(TryLockError::Poisoned(poisoned)) => (poisoned.into_inner(), false),
            Err(TryLockError::WouldBlock) => (lock(&curve), true),
        };

        StatsCells::bump(&self.stats.queries);
        if let Some(entry) = state.memo.get(&resolved.p_units) {
            StatsCells::bump(&self.stats.cache_hits);
            if waited {
                StatsCells::bump(&self.stats.coalesced);
            }
            return Ok(Answer {
                interval: entry.interval.clone(),
                cached: true,
                coalesced: waited,
                anchors_advanced: 0,
            });
        }
        let chain_len = state.anchors.len() as u64;
        if resolved.exact_anchor && resolved.anchor_index < chain_len {
            // Memo-evicted anchor point: the chain still holds it.
            if let Some(record) = anchor_record(&state, resolved.anchor_index) {
                let interval = record.interval.clone();
                self.memoize(&mut state, resolved.p_units, interval.clone());
                StatsCells::bump(&self.stats.cache_hits);
                return Ok(Answer {
                    interval,
                    cached: true,
                    coalesced: waited,
                    anchors_advanced: 0,
                });
            }
        }

        let (interval, advanced) = self.compute(&mut state, &family, &resolved, parallelism)?;
        self.memoize(&mut state, resolved.p_units, interval.clone());
        Ok(Answer {
            interval,
            cached: false,
            coalesced: waited,
            anchors_advanced: advanced,
        })
    }

    /// Validates and quantizes a query. Every rejected parameter surfaces
    /// as the same typed [`SelfishMiningError::InvalidParameter`] the batch
    /// sweep uses, before any cache entry is touched.
    fn resolve(&self, query: &Query) -> Result<Resolved, ServiceError> {
        validate_share("p", query.p)?;
        validate_share("gamma", query.gamma)?;
        validate_epsilon(query.epsilon)?;
        let p_units = quantize(query.p, SHARE_QUANTUM);
        let gamma_units = quantize(query.gamma, SHARE_QUANTUM);
        let epsilon_units = quantize(query.epsilon, EPSILON_QUANTUM);
        if epsilon_units == 0 {
            return Err(ServiceError::Analysis(
                SelfishMiningError::InvalidParameter {
                    name: "epsilon",
                    constraint: "must be at least one epsilon quantum",
                },
            ));
        }
        let p = dequantize(p_units, SHARE_QUANTUM).clamp(0.0, 1.0);
        let gamma = dequantize(gamma_units, SHARE_QUANTUM).clamp(0.0, 1.0);
        let epsilon = dequantize(epsilon_units, EPSILON_QUANTUM);
        // Structural validation (d, f ≥ 1, 1 ≤ l ≤ 255) through the shared
        // params type.
        AttackParams::new(
            p,
            gamma,
            query.depth,
            query.forks_per_block,
            query.max_fork_length,
        )?;
        let topology: TopologyKey = (
            query.scenario.label(),
            query.depth,
            query.forks_per_block,
            query.max_fork_length,
        );
        Ok(Resolved {
            key: (topology, query.backend.label(), gamma_units, epsilon_units),
            scenario: query.scenario,
            backend: query.backend,
            depth: query.depth,
            forks_per_block: query.forks_per_block,
            max_fork_length: query.max_fork_length,
            p_units,
            p,
            gamma,
            epsilon,
            anchor_index: p_units / self.anchor_quanta,
            exact_anchor: p_units % self.anchor_quanta == 0,
        })
    }

    /// Looks up (or creates) the query's arena slot and curve under the
    /// registry lock, refreshing LRU stamps and evicting over-cap entries.
    fn entries(&self, resolved: &Resolved) -> (Arc<Mutex<ArenaSlot>>, Arc<Mutex<CurveState>>) {
        let mut registry = lock(&self.registry);
        registry.stamp += 1;
        let stamp = registry.stamp;
        let topology = &resolved.key.0;

        let slot = match registry.arenas.get_mut(topology) {
            Some(entry) => {
                entry.stamp = stamp;
                Arc::clone(&entry.slot)
            }
            None => {
                let slot = Arc::new(Mutex::new(ArenaSlot { family: None }));
                registry.arenas.insert(
                    topology.clone(),
                    ArenaEntry {
                        slot: Arc::clone(&slot),
                        stamp,
                    },
                );
                slot
            }
        };
        let curve = match registry.curves.get_mut(&resolved.key) {
            Some(entry) => {
                entry.stamp = stamp;
                Arc::clone(&entry.state)
            }
            None => {
                let state = Arc::new(Mutex::new(CurveState::default()));
                registry.curves.insert(
                    resolved.key.clone(),
                    CurveEntry {
                        state: Arc::clone(&state),
                        stamp,
                    },
                );
                state
            }
        };

        // LRU eviction, never evicting the entry this request is about to
        // use. In-flight requests on an evicted entry keep it alive through
        // their Arc and finish normally; a later request simply rebuilds —
        // with bit-identical answers, since answers are pure functions of
        // the rounded query.
        evict_lru(
            &mut registry.curves,
            self.config.max_curves,
            &resolved.key,
            |entry| entry.stamp,
            &self.stats.curve_evictions,
        );
        evict_lru(
            &mut registry.arenas,
            self.config.max_arenas,
            topology,
            |entry| entry.stamp,
            &self.stats.arena_evictions,
        );
        (slot, curve)
    }

    /// Returns the slot's shared arena, building it on first touch.
    /// Concurrent first touches of the same topology coalesce on the slot
    /// lock: one builds, the rest wait and share.
    fn family(
        &self,
        slot: &Mutex<ArenaSlot>,
        resolved: &Resolved,
    ) -> Result<Arc<ParametricModel>, ServiceError> {
        let mut slot = lock(slot);
        if let Some(family) = slot.family.as_ref() {
            StatsCells::bump(&self.stats.arena_hits);
            return Ok(Arc::clone(family));
        }
        let built = ParametricModel::build_scenario(
            resolved.scenario,
            resolved.depth,
            resolved.forks_per_block,
            resolved.max_fork_length,
        )?;
        StatsCells::bump(&self.stats.arena_builds);
        let family = Arc::new(built);
        slot.family = Some(Arc::clone(&family));
        Ok(family)
    }

    /// Advances the curve's canonical chain up to the query's anchor and
    /// answers the query (anchor value or warm probe). Runs under the
    /// curve lock.
    fn compute(
        &self,
        state: &mut CurveState,
        family: &ParametricModel,
        resolved: &Resolved,
        parallelism: SolverParallelism,
    ) -> Result<(CertifiedInterval, usize), ServiceError> {
        let analysis = AnalysisConfig::with_epsilon(resolved.epsilon).with_parallelism(parallelism);
        let mut tracker = CurveTracker::new(family, resolved.gamma, true, analysis)
            .with_arena(state.arena.take());
        if let Some(last) = state.anchors.last() {
            tracker.restore(&last.carry);
        }
        let mut advanced = 0usize;
        while (state.anchors.len() as u64) <= resolved.anchor_index {
            let index = state.anchors.len() as u64;
            let anchor_p = self.anchor_p(index);
            let solve = match tracker.advance(anchor_p) {
                Ok(solve) => solve,
                Err(err) => {
                    state.arena = tracker.into_arena();
                    return Err(err.into());
                }
            };
            advanced += 1;
            StatsCells::bump(&self.stats.solves);
            StatsCells::bump(&self.stats.anchor_advances);
            let interval = CertifiedInterval::from_solve(&solve, resolved.backend);
            self.memoize(state, index * self.anchor_quanta, interval.clone());
            state.anchors.push(AnchorRecord {
                interval,
                carry: tracker.snapshot(),
            });
        }
        let interval = if resolved.exact_anchor {
            match anchor_record(state, resolved.anchor_index) {
                Some(record) => record.interval.clone(),
                None => {
                    state.arena = tracker.into_arena();
                    return Err(ServiceError::Analysis(
                        SelfishMiningError::InvalidParameter {
                            name: "p",
                            constraint: "anchor index must fit the chain",
                        },
                    ));
                }
            }
        } else {
            match anchor_record(state, resolved.anchor_index) {
                Some(record) => tracker.restore(&record.carry),
                None => {
                    state.arena = tracker.into_arena();
                    return Err(ServiceError::Analysis(
                        SelfishMiningError::InvalidParameter {
                            name: "p",
                            constraint: "anchor index must fit the chain",
                        },
                    ));
                }
            }
            let solve = match tracker.probe(resolved.p) {
                Ok(solve) => solve,
                Err(err) => {
                    state.arena = tracker.into_arena();
                    return Err(err.into());
                }
            };
            StatsCells::bump(&self.stats.solves);
            StatsCells::bump(&self.stats.probes);
            CertifiedInterval::from_solve(&solve, resolved.backend)
        };
        state.arena = tracker.into_arena();
        Ok((interval, advanced))
    }

    /// The `p` value of canonical anchor `index`.
    fn anchor_p(&self, index: u64) -> f64 {
        dequantize(index * self.anchor_quanta, SHARE_QUANTUM).clamp(0.0, 1.0)
    }

    /// Inserts an answer into the curve's memo, LRU-evicting over the cap
    /// (the just-inserted entry is never the victim).
    fn memoize(&self, state: &mut CurveState, p_units: u64, interval: CertifiedInterval) {
        state.memo_stamp += 1;
        let stamp = state.memo_stamp;
        state.memo.insert(p_units, MemoEntry { interval, stamp });
        evict_lru(
            &mut state.memo,
            self.config.max_memo_points,
            &p_units,
            |entry| entry.stamp,
            &self.stats.memo_evictions,
        );
    }
}

/// Evicts least-recently-stamped entries until `map` holds at most `cap`,
/// never the entry under `keep`, and bumps `evictions` once per entry
/// removed.
fn evict_lru<K: Ord + Clone, V>(
    map: &mut BTreeMap<K, V>,
    cap: usize,
    keep: &K,
    stamp: impl Fn(&V) -> u64,
    evictions: &AtomicU64,
) {
    while map.len() > cap {
        let victim = map
            .iter()
            .filter(|(key, _)| *key != keep)
            .min_by_key(|(_, entry)| stamp(entry))
            .map(|(key, _)| key.clone());
        match victim {
            Some(key) => {
                map.remove(&key);
                StatsCells::bump(evictions);
            }
            None => break,
        }
    }
}

fn anchor_record(state: &CurveState, index: u64) -> Option<&AnchorRecord> {
    usize::try_from(index)
        .ok()
        .and_then(|index| state.anchors.get(index))
}

/// Rounds a non-negative finite value to the nearest multiple of `quantum`,
/// in units. Saturates (deterministically) far outside any meaningful range.
fn quantize(value: f64, quantum: f64) -> u64 {
    (value / quantum).round() as u64
}

/// The value a unit count stands for.
fn dequantize(units: u64, quantum: f64) -> f64 {
    units as f64 * quantum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_query(p: f64) -> Query {
        Query {
            depth: 1,
            forks_per_block: 1,
            epsilon: 5e-3,
            p,
            ..Query::default()
        }
    }

    fn service() -> Service {
        Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("default config is valid")
    }

    #[test]
    fn config_validation_rejects_degenerate_settings() {
        let bad = |config: ServiceConfig| {
            assert!(matches!(
                Service::new(config),
                Err(ServiceError::Config { .. })
            ));
        };
        bad(ServiceConfig {
            max_curves: 0,
            ..ServiceConfig::default()
        });
    }

    #[test]
    fn invalid_queries_are_rejected_before_any_cache_activity() {
        let service = service();
        for query in [
            Query {
                p: f64::NAN,
                ..tiny_query(0.1)
            },
            Query {
                gamma: 1.5,
                ..tiny_query(0.1)
            },
            Query {
                epsilon: 0.0,
                ..tiny_query(0.1)
            },
            Query {
                epsilon: f64::INFINITY,
                ..tiny_query(0.1)
            },
            Query {
                depth: 0,
                ..tiny_query(0.1)
            },
        ] {
            assert!(matches!(
                service.answer(&query),
                Err(ServiceError::Analysis(
                    SelfishMiningError::InvalidParameter { .. }
                ))
            ));
        }
        assert_eq!(service.cached_arenas(), 0);
        assert_eq!(service.cached_curves(), 0);
        assert_eq!(service.stats().queries, 0);
    }

    #[test]
    fn nearby_queries_coalesce_onto_one_rounded_point() {
        let service = service();
        let first = service.answer(&tiny_query(0.1)).expect("solves");
        let nudged = service
            .answer(&tiny_query(0.1 + 1e-9))
            .expect("rounds to the same point");
        assert!(!first.cached);
        assert!(nudged.cached);
        assert_eq!(first.interval, nudged.interval);
        assert_eq!(service.stats().cache_hits, 1);
    }

    #[test]
    fn a_second_backend_shares_the_arena_but_solves_its_own_curve() {
        let service = service();
        let bernoulli = service.answer(&tiny_query(0.1)).expect("solves");
        let postake = service
            .answer(&Query {
                backend: ConsensusBackend::PoStake,
                ..tiny_query(0.1)
            })
            .expect("solves on its own curve");
        // Separate curve: the second backend is a cache miss, not a memo hit.
        assert!(!bernoulli.cached);
        assert!(!postake.cached);
        assert_eq!(service.cached_curves(), 2);
        // Shared arena: same topology, so no second build.
        assert_eq!(service.stats().arena_builds, 1);
        assert!(service.stats().arena_hits >= 1);
        assert_eq!(service.cached_arenas(), 1);
        // The solve itself is backend-independent: identical bracket, only
        // the backend tag (and with it the certificate scope) differs.
        assert_eq!(bernoulli.interval.backend, ConsensusBackend::Bernoulli);
        assert_eq!(postake.interval.backend, ConsensusBackend::PoStake);
        assert_eq!(bernoulli.interval.beta_low, postake.interval.beta_low);
        assert_eq!(bernoulli.interval.beta_up, postake.interval.beta_up);
        assert_eq!(
            bernoulli.interval.certificate_scope(),
            CertificateScope::TwoSided
        );
        assert_eq!(
            postake.interval.certificate_scope(),
            CertificateScope::LowerBoundOnly
        );
        // Repeating the backend-tagged query is now a memo hit on its curve.
        let again = service
            .answer(&Query {
                backend: ConsensusBackend::PoStake,
                ..tiny_query(0.1)
            })
            .expect("memoized");
        assert!(again.cached);
        assert_eq!(again.interval, postake.interval);
    }

    #[test]
    fn certificates_bracket_revenue_at_the_requested_width() {
        let service = service();
        let answer = service.answer(&tiny_query(0.137)).expect("solves");
        let interval = &answer.interval;
        assert!((interval.p - 0.137).abs() < 1e-6 + 1e-9);
        assert!(interval.beta_low <= interval.strategy_revenue + 1e-12);
        assert!(interval.strategy_revenue <= interval.beta_up + 1e-12);
        assert!(interval.beta_up - interval.beta_low <= interval.epsilon + 1e-12);
        // 0.137 sits above anchor 0.10: anchors 0, 0.05, 0.10 + one probe.
        assert_eq!(answer.anchors_advanced, 3);
        assert_eq!(service.stats().probes, 1);
        assert_eq!(service.stats().solves, 4);
    }
}
