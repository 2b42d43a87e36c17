//! The workspace's shared scheduler for independent indexed jobs.
//!
//! Three subsystems fan deterministic, independent work items over scoped
//! worker pools: the Monte-Carlo estimator (replicas), the sweep engine
//! (curve jobs, conformance jobs) and the certified-analysis query service
//! (daemon query batches). They all share the one job loop of this crate —
//! historically a private module of `sm-conformance`, promoted to its own
//! crate so the batch and serving paths run the exact same scheduler:
//!
//! * [`run_budgeted_jobs`] — workers drain an atomic index and results are
//!   collected **in job order**, so the output is identical for any budget;
//!   only wall-clock time changes. A budget of one runs the jobs inline.
//!   The budget is *nested*: outer jobs are preferred while the queue is
//!   deep, and as the queue drains the left-over budget is granted to the
//!   running jobs as an intra-job thread allowance (which the sweep engine
//!   and the query service forward to the solvers' intra-solve
//!   parallelism; the Monte-Carlo estimator ignores it). This fixes the
//!   historical short-queue behaviour where a 2-job sweep on an 8-thread
//!   budget spawned 2 workers and left 6 cores idle.
//! * [`resolve_budget`] — the "0 = auto" rule that turns a configured
//!   worker count into a budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Resolves a configured thread budget: `0` means
/// [`std::thread::available_parallelism`], anything else is taken as-is (at
/// least 1); the resolution convention is
/// [`selfish_mining::SolverParallelism`]'s, so the budget and the
/// intra-solve knob can never disagree on what "auto" means. The budget is
/// **not** clamped to the job count — budget beyond the number of jobs is
/// handed to the jobs themselves as intra-job allowance by
/// [`run_budgeted_jobs`].
pub fn resolve_budget(configured: usize) -> usize {
    selfish_mining::SolverParallelism::threads(configured).thread_count()
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
/// (up to integer rounding in the caller's favour).
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
pub fn run_budgeted_jobs<T, F>(budget: usize, count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let budget = budget.max(1);
    let outer = budget.clamp(1, count.max(1));
    if outer <= 1 {
        // Single outer lane: every job may use the whole budget.
        return (0..count).map(|index| job(index, budget)).collect();
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
                let outcome = job(index, allowance);
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

/// Bounded-retry policy with exponential backoff, used by the grid
/// orchestrator's shard runner: attempt `k` (1-based) of a failed job is
/// retried after `backoff · 2^(k−1)`, capped at [`RetryPolicy::max_backoff`],
/// until [`RetryPolicy::max_attempts`] attempts have been spent.
///
/// The policy only shapes *when* work re-runs, never *what* it computes —
/// every job in this workspace is deterministic, so a retried job returns
/// the same bits as an uninterrupted one and the retry history is invisible
/// in the results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts a job may spend (first try included); clamped to at
    /// least 1 by [`run_with_retry`].
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
///
/// # Errors
///
/// The last attempt's error when every attempt failed.
pub fn run_with_retry<T, E, F>(policy: &RetryPolicy, mut job: F) -> Result<T, E>
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_job_lists_are_fine() {
        for budget in [1, 4] {
            assert_eq!(run_budgeted_jobs(budget, 0, |i, _| i), Vec::<usize>::new());
        }
    }

    #[test]
    fn budget_resolution_does_not_clamp_to_jobs() {
        assert!(resolve_budget(0) >= 1);
        assert_eq!(resolve_budget(8), 8);
        assert_eq!(resolve_budget(1), 1);
    }

    #[test]
    fn budgeted_jobs_return_in_order_for_any_budget() {
        let reference: Vec<usize> = (0..23).map(|i| i * 3).collect();
        for budget in [1, 2, 8, 64] {
            assert_eq!(
                run_budgeted_jobs(budget, 23, |i, _allowance| i * 3),
                reference,
                "budget = {budget}"
            );
        }
    }

    #[test]
    fn short_queue_allowances_split_the_whole_budget() {
        // 2 jobs on an 8-thread budget: the first claim always sees both
        // jobs unfinished and gets 8 / 2 = 4 threads (the historical pool
        // gave it 1 and idled 6); the second gets 4 too when claimed
        // concurrently, or the full 8 if the first job already retired.
        let allowances = run_budgeted_jobs(8, 2, |_i, allowance| allowance);
        assert_eq!(allowances[0], 4);
        assert!(
            allowances[1] == 4 || allowances[1] == 8,
            "unexpected allowance {allowances:?}"
        );
        // 1 job gets everything.
        assert_eq!(run_budgeted_jobs(8, 1, |_i, a| a), vec![8]);
    }

    #[test]
    fn retry_returns_first_success_and_reports_attempt_numbers() {
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let mut seen = Vec::new();
        let outcome: Result<usize, &str> = run_with_retry(&policy, |attempt| {
            seen.push(attempt);
            if attempt < 2 {
                Err("transient")
            } else {
                Ok(attempt * 10)
            }
        });
        assert_eq!(outcome, Ok(20));
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn retry_exhausts_the_budget_and_returns_the_last_error() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let outcome: Result<(), String> =
            run_with_retry(&policy, |attempt| Err(format!("attempt {attempt}")));
        assert_eq!(outcome, Err("attempt 2".to_string()));
        // A zero budget still runs the job once.
        let zero = RetryPolicy {
            max_attempts: 0,
            ..policy
        };
        let mut calls = 0;
        let _: Result<(), &str> = run_with_retry(&zero, |_| {
            calls += 1;
            Err("always")
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 8,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(policy.delay_before(1), Duration::from_millis(10));
        assert_eq!(policy.delay_before(2), Duration::from_millis(20));
        assert_eq!(policy.delay_before(3), Duration::from_millis(35));
        assert_eq!(policy.delay_before(60), Duration::from_millis(35));
    }

    #[test]
    fn deep_queue_prefers_outer_jobs_and_drains_into_allowances() {
        // With as many jobs as budget, every claim made while the queue is
        // full sees allowance 1; as jobs finish, later claims may see more —
        // but the combined in-flight allowance never exceeds the budget.
        let budget = 4;
        let allowances = run_budgeted_jobs(budget, 16, |_i, allowance| allowance);
        assert!(allowances.iter().all(|&a| (1..=budget).contains(&a)));
        assert!(
            allowances.iter().filter(|&&a| a == 1).count() >= 16 - budget,
            "most claims of a deep queue must prefer outer parallelism: {allowances:?}"
        );
    }
}
