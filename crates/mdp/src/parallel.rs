//! The workspace's one thread substrate: deterministic intra-solve
//! parallelism (mass-balanced row blocks and a scoped block-sweep pool) and
//! the job loop that fans independent indexed jobs over a nested thread
//! budget. No other library module starts a thread.
//!
//! The solver hot loops of this workspace (relative value iteration and
//! fused chain-gain evaluation) are all *Jacobi* sweeps over a CSR arena:
//! every state's new value is a pure function of the previous iterate, so a
//! sweep can be cut into contiguous state blocks and the blocks computed
//! concurrently without changing a single bit of the result — each state
//! runs the same row kernel, in the same order, against the same read-only
//! snapshot of the previous iterate. Per-sweep statistics (span, reference
//! values) are reduced *per block* and folded in block order, so even the
//! reductions are independent of the thread count. Each solver has one
//! sweep loop over its blocks: a serial solve is the one-block case, run
//! inline by a zero-worker [`sweep_scope`].
//! Jacobi is the only sweep schedule: in-place (Gauss-Seidel-ordered)
//! schedules measured slower on every arena size and would not parallelise
//! without making results depend on the block layout.
//!
//! Four pieces live here; the knob and the job loop are public:
//!
//! * [`SolverParallelism`] — the knob every solver exposes: serial (the
//!   default, one block), an explicit thread count, or auto-detection. It is
//!   also the unit of every thread budget, so "0 = auto" has one meaning.
//! * [`run_budgeted_jobs`] — the job loop of the sweep engine, the grid
//!   runner and the query service: independent indexed jobs drain an atomic
//!   index over a nested budget and their results come back **in job
//!   order**, so the output is identical for any budget.
//! * [`mass_balanced_blocks`] — partitions the state range into contiguous
//!   blocks whose boundaries are derived from the *cumulative transition
//!   mass* (a `row_ptr`-shaped array), not naive state counts: a sweep's cost
//!   per state is proportional to its transition count, and the
//!   selfish-mining arenas are markedly non-uniform (deep-fork states carry
//!   many more transitions than the root), so equal-state blocks would load
//!   the pool unevenly.
//! * [`sweep_scope`] — a scoped thread pool that keeps one worker per extra
//!   block alive across *all* sweeps of a solve (spawning per sweep would
//!   dominate the sub-millisecond sweeps of medium arenas), exchanging only a
//!   small job token per round; with one block it spawns nothing. Workers
//!   communicate through channels; buffer hand-over is the caller's business
//!   (the solvers keep the shared iterate behind a [`std::sync::RwLock`] and
//!   per-block scratch and span statistics behind one uncontended
//!   [`std::sync::Mutex`] each).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// How many worker threads a single solve may use for its sweeps.
///
/// The *results* of every solver in this workspace are bit-identical for any
/// thread count (see the module docs); this knob only trades wall-clock time
/// for cores. The default is [`SolverParallelism::serial`]: one row block,
/// swept inline by the calling thread through the same loop a parallel solve
/// runs, with no worker threads.
///
/// # Example
///
/// ```
/// use sm_mdp::SolverParallelism;
///
/// assert_eq!(SolverParallelism::serial().thread_count(), 1);
/// assert_eq!(SolverParallelism::threads(4).thread_count(), 4);
/// assert!(SolverParallelism::auto().thread_count() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolverParallelism {
    /// Configured thread count; `0` encodes auto-detection.
    threads: usize,
}

impl SolverParallelism {
    /// Single-threaded sweeps (the default): one row block, no worker
    /// threads.
    pub const fn serial() -> Self {
        SolverParallelism { threads: 1 }
    }

    /// Use [`std::thread::available_parallelism`] threads.
    pub const fn auto() -> Self {
        SolverParallelism { threads: 0 }
    }

    /// Use exactly `n` threads; `0` is equivalent to
    /// [`SolverParallelism::auto`].
    pub const fn threads(n: usize) -> Self {
        SolverParallelism { threads: n }
    }

    /// The resolved thread count: the configured value, or the machine's
    /// available parallelism (at least 1) for [`SolverParallelism::auto`].
    pub fn thread_count(self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

impl Default for SolverParallelism {
    fn default() -> Self {
        SolverParallelism::serial()
    }
}

/// Runs jobs `0..count` over a nested thread budget and returns their
/// results in job order.
///
/// At most `min(budget, count)` outer workers drain the job queue (a single
/// worker runs the jobs inline, without spawning); each job
/// additionally receives an **intra-job thread allowance** `a ≥ 1` (the
/// second closure argument) such that the outer workers and the allowances
/// together stay within `budget`:
///
/// * while the queue is deep (at least as many unfinished jobs as outer
///   workers) every job gets `budget / outer` — outer parallelism is
///   preferred because it has no synchronisation cost;
/// * as the queue drains below the worker count, claims see fewer unfinished
///   jobs and the allowance grows, up to the whole budget for the final job —
///   the cores freed by retired workers are soaked up *inside* the remaining
///   solves.
///
/// An allowance is computed once, at claim time, from the number of
/// unfinished jobs; since a job claimed when `u` jobs were unfinished gets
/// at most `budget / min(outer, u)` threads and at most `min(outer, u)` jobs
/// run concurrently with it, the combined allowance stays within the budget
/// (up to integer rounding in the caller's favour). The budget is **not**
/// clamped to the job count: budget beyond the number of jobs is handed to
/// the jobs themselves. An auto budget resolves to
/// [`std::thread::available_parallelism`]; an allowance is always an
/// explicit count.
///
/// The *scheduling* depends on timing, but the allowance is invisible in the
/// output by construction — every solver in this workspace is bit-identical
/// for any intra-solve thread count — so the returned vector is identical
/// for any budget.
///
/// # Panics
///
/// Propagates panics from `job` (a panicking job poisons its slot and the
/// collection phase re-panics).
pub fn run_budgeted_jobs<T, F>(budget: SolverParallelism, count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, SolverParallelism) -> T + Sync,
{
    let budget = budget.thread_count();
    let outer = budget.clamp(1, count.max(1));
    if outer <= 1 {
        // Single outer lane: every job may use the whole budget.
        let allowance = SolverParallelism::threads(budget);
        return (0..count).map(|index| job(index, allowance)).collect();
    }
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..outer {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let unfinished = count - finished.load(Ordering::Relaxed).min(count);
                let concurrent = outer.min(unfinished).max(1);
                let allowance = (budget / concurrent).max(1);
                let outcome = job(index, SolverParallelism::threads(allowance));
                *slots[index].lock().expect("job slot poisoned") = Some(outcome);
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("job slot poisoned")
                .expect("worker pool completed every job")
        })
        .collect()
}

/// Minimum transition mass a block must carry before it is worth a dedicated
/// worker. Solvers cap their thread count at
/// `1 + total_mass / MIN_BLOCK_MASS`, so small models (where one sweep costs
/// microseconds and a round of pool synchronisation would dominate) silently
/// run as one block no matter what the knob says. Results are unaffected either
/// way — the cap is a pure wall-clock heuristic.
pub(crate) const MIN_BLOCK_MASS: usize = 2048;

/// Caps a requested thread count by the available transition mass: at most
/// one thread per [`MIN_BLOCK_MASS`] transitions (and at least one thread).
pub(crate) fn mass_capped_threads(requested: usize, total_mass: usize) -> usize {
    requested.clamp(1, 1 + total_mass / MIN_BLOCK_MASS)
}

/// Partitions the state range `0..n` into at most `blocks` contiguous,
/// non-empty ranges whose transition mass is as balanced as the row
/// granularity allows.
///
/// `cumulative_mass` is a `row_ptr`-shaped array of length `n + 1`:
/// nondecreasing, with `cumulative_mass[s + 1] - cumulative_mass[s]` the cost
/// weight of state `s` (its transition count, for CSR sweeps). The `k`-th
/// boundary is the first state at which the cumulative mass reaches `k/blocks`
/// of the total, so every block carries roughly `total / blocks` transitions
/// regardless of how unevenly they are distributed over states. Boundaries
/// are a pure function of `(cumulative_mass, blocks)` — the partition is
/// deterministic, and with it every per-block reduction fold.
///
/// Degenerate inputs collapse gracefully: zero states yield no blocks, and
/// states beyond the mass (e.g. trailing transition-free states) are absorbed
/// into the final block.
///
/// # Panics
///
/// Panics if `cumulative_mass` is empty (no state count to partition).
pub(crate) fn mass_balanced_blocks(cumulative_mass: &[usize], blocks: usize) -> Vec<Range<usize>> {
    assert!(
        !cumulative_mass.is_empty(),
        "cumulative mass must have n + 1 entries"
    );
    let n = cumulative_mass.len() - 1;
    if n == 0 {
        return Vec::new();
    }
    let blocks = blocks.clamp(1, n);
    let total = cumulative_mass[n];
    let mut out = Vec::with_capacity(blocks);
    let mut start = 0usize;
    for k in 1..=blocks {
        let end = if k == blocks {
            n
        } else {
            // First state index at which the cumulative mass reaches k/blocks
            // of the total (integer arithmetic keeps the cut exact), clamped
            // so every remaining block can stay non-empty.
            let target = total * k / blocks;
            cumulative_mass
                .partition_point(|&m| m < target)
                .clamp(start + 1, n - (blocks - k))
        };
        if end > start {
            out.push(start..end);
            start = end;
        }
    }
    out
}

/// Handle to a running block-sweep pool: lets the solve's driver loop run
/// synchronised rounds over all blocks. Created by [`sweep_scope`].
pub(crate) struct BlockPool<'pool, J, R> {
    job_senders: Vec<Sender<J>>,
    result_receivers: Vec<Receiver<R>>,
    run_block: &'pool (dyn Fn(usize, &J) -> R + Sync),
}

impl<J: Clone, R> BlockPool<'_, J, R> {
    /// Number of blocks this pool sweeps (workers plus the driver's own
    /// block 0).
    pub fn blocks(&self) -> usize {
        self.job_senders.len() + 1
    }

    /// Runs one synchronised round: every block executes the worker closure
    /// on `job`, and the per-block results come back **in block order** —
    /// the driver computes block 0 inline while the workers handle the rest.
    pub fn round(&self, job: J) -> Vec<R> {
        for sender in &self.job_senders {
            sender
                .send(job.clone())
                .expect("sweep worker exited before the pool was dropped");
        }
        let mut results = Vec::with_capacity(self.blocks());
        results.push((self.run_block)(0, &job));
        for receiver in &self.result_receivers {
            results.push(
                receiver
                    .recv()
                    .expect("sweep worker exited before completing its round"),
            );
        }
        results
    }
}

/// Runs `driver` against a scoped pool of `extra_workers` threads, each
/// owning one block (`1..=extra_workers`; the driver computes block 0
/// inline during [`BlockPool::round`]). Workers stay alive for the whole
/// scope — one spawn per solve, not per sweep — and exit when the pool (and
/// with it their job channel) is dropped at the end of `driver`.
///
/// `run_block(block_index, &job)` is the per-round work item; it typically
/// captures the CSR slices read-only, the shared iterate behind a `RwLock`
/// and its block's scratch buffers behind a `Mutex`. With `extra_workers ==
/// 0` no threads are spawned and rounds run entirely inline: this is how
/// the solvers run serially, so their sweep loop is the same for any pool
/// size.
pub(crate) fn sweep_scope<J, R, T>(
    extra_workers: usize,
    run_block: impl Fn(usize, &J) -> R + Sync,
    driver: impl FnOnce(&BlockPool<'_, J, R>) -> T,
) -> T
where
    J: Clone + Send,
    R: Send,
{
    if extra_workers == 0 {
        let pool = BlockPool {
            job_senders: Vec::new(),
            result_receivers: Vec::new(),
            run_block: &run_block,
        };
        return driver(&pool);
    }
    std::thread::scope(|scope| {
        let mut job_senders = Vec::with_capacity(extra_workers);
        let mut result_receivers = Vec::with_capacity(extra_workers);
        for worker in 0..extra_workers {
            let (job_tx, job_rx) = channel::<J>();
            let (result_tx, result_rx) = channel::<R>();
            let run_block = &run_block;
            scope.spawn(move || {
                let block = worker + 1;
                while let Ok(job) = job_rx.recv() {
                    // A send failure means the driver stopped collecting
                    // (it is unwinding); exit quietly rather than panic.
                    if result_tx.send(run_block(block, &job)).is_err() {
                        break;
                    }
                }
            });
            job_senders.push(job_tx);
            result_receivers.push(result_rx);
        }
        let pool = BlockPool {
            job_senders,
            result_receivers,
            run_block: &run_block,
        };
        driver(&pool)
    })
}

// Lock poisoning only means another block's worker panicked; the buffers
// hold plain numeric data written in disjoint slices, so recovery is sound —
// the originating panic still propagates through the sweep scope's join.
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallelism_resolves_thread_counts() {
        assert_eq!(SolverParallelism::serial().thread_count(), 1);
        assert_eq!(SolverParallelism::default(), SolverParallelism::serial());
        assert_eq!(SolverParallelism::threads(0), SolverParallelism::auto());
        assert_eq!(SolverParallelism::threads(7).thread_count(), 7);
        assert!(SolverParallelism::auto().thread_count() >= 1);
    }

    #[test]
    fn mass_cap_limits_small_models_to_serial() {
        assert_eq!(mass_capped_threads(8, 100), 1);
        assert_eq!(mass_capped_threads(8, MIN_BLOCK_MASS), 2);
        assert_eq!(mass_capped_threads(8, 100 * MIN_BLOCK_MASS), 8);
        assert_eq!(mass_capped_threads(0, 100 * MIN_BLOCK_MASS), 1);
    }

    #[test]
    fn blocks_cover_the_range_and_balance_mass() {
        // 100 states of weight 2 each.
        let cum: Vec<usize> = (0..=100).map(|s| 2 * s).collect();
        for threads in [1, 2, 3, 7, 100] {
            let blocks = mass_balanced_blocks(&cum, threads);
            assert_eq!(blocks.len(), threads.min(100));
            assert_eq!(blocks[0].start, 0);
            assert_eq!(blocks.last().unwrap().end, 100);
            for pair in blocks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "blocks must be contiguous");
                assert!(!pair[0].is_empty());
            }
        }
    }

    #[test]
    fn skewed_mass_shifts_the_boundaries() {
        // State 9 carries 90% of the mass: with two blocks, the cut must land
        // right before it, not at the state midpoint.
        let mut cum = vec![0usize];
        for s in 0..10 {
            let w = if s == 9 { 90 } else { 1 };
            cum.push(cum.last().unwrap() + w);
        }
        let blocks = mass_balanced_blocks(&cum, 2);
        assert_eq!(blocks, vec![0..9, 9..10]);
        // Four states; the last one carries half of the total mass.
        assert_eq!(mass_balanced_blocks(&[0, 2, 4, 6, 12], 2), vec![0..3, 3..4]);
    }

    #[test]
    fn degenerate_partitions_collapse() {
        assert!(mass_balanced_blocks(&[0], 4).is_empty());
        // Zero-mass states still partition into non-empty state ranges.
        assert_eq!(mass_balanced_blocks(&[0, 0, 0], 2), vec![0..1, 1..2]);
        // More blocks than states clamp to one state per block.
        assert_eq!(
            mass_balanced_blocks(&[0, 1, 2], 9),
            vec![0..1, 1..2],
            "blocks are clamped to the state count"
        );
    }

    #[test]
    fn pool_rounds_return_results_in_block_order() {
        let seen = AtomicUsize::new(0);
        let doubled = sweep_scope(
            3,
            |block, job: &usize| {
                seen.fetch_add(1, Ordering::Relaxed);
                block * 100 + job
            },
            |pool| {
                assert_eq!(pool.blocks(), 4);
                let first = pool.round(7);
                let second = pool.round(9);
                (first, second)
            },
        );
        assert_eq!(doubled.0, vec![7, 107, 207, 307]);
        assert_eq!(doubled.1, vec![9, 109, 209, 309]);
        assert_eq!(seen.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let out = sweep_scope(0, |block, job: &usize| block + job, |pool| pool.round(5));
        assert_eq!(out, vec![5]);
    }
}
