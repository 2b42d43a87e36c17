//! Deterministic fault injection for the grid runner — the test harness
//! that proves the crash/resume story. A plan selects points by a
//! stride/offset pattern over the canonical point index and a round
//! budget, so a test (or a CI smoke run) can kill "every third job in the
//! first round" and assert the rescan and merge machinery heals the run bit
//! for bit. Production runs simply carry no plan
//! ([`crate::GridOptions::fault_plan`] defaults to `None`).

/// What an injected fault does to a matching point-job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Abort the shard attempt with [`crate::GridError::Injected`] *before*
    /// the point's artifact is written — a crash mid-shard: points the
    /// shard already wrote stay durable, later points never run.
    Kill,
    /// Write a deliberately truncated artifact and report success — a torn
    /// write surviving a power loss. The corruption is only discovered by
    /// the next scan's fingerprint verification, which re-schedules the
    /// point.
    Poison,
}

/// One fault rule: apply [`GridFault::kind`] to every point whose canonical
/// index is ≡ `offset (mod stride)`, in rounds `0..attempts` of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridFault {
    /// The injected behaviour.
    pub kind: FaultKind,
    /// Stride of the point selector (`0` matches nothing).
    pub stride: usize,
    /// Offset of the point selector, taken `mod stride`.
    pub offset: usize,
    /// Number of rounds of a run the fault fires on. Rounds are 0-based and
    /// a shard runs once per round, so `1` faults only the first round (the
    /// next round heals it) and `usize::MAX` never heals within a run —
    /// only a later resume without the plan.
    pub attempts: usize,
}

impl GridFault {
    fn applies(&self, point: usize, round: usize) -> bool {
        self.stride >= 1
            && point % self.stride == self.offset % self.stride
            && round < self.attempts
    }
}

/// A set of fault rules, first match wins. Test-only by intent: the runner
/// honours a plan wherever one is supplied, but no production entry point
/// constructs one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GridFaultPlan {
    /// The rules, checked in order.
    pub faults: Vec<GridFault>,
}

impl GridFaultPlan {
    /// Kills every `stride`-th point-job (offset 0) in the first `attempts`
    /// rounds of a run.
    pub fn kill_every(stride: usize, attempts: usize) -> Self {
        GridFaultPlan {
            faults: vec![GridFault {
                kind: FaultKind::Kill,
                stride,
                offset: 0,
                attempts,
            }],
        }
    }

    /// The first rule matching `(point, round)`, if any (`round` 0-based).
    pub fn fault_for(&self, point: usize, round: usize) -> Option<&GridFault> {
        self.faults.iter().find(|fault| fault.applies(point, round))
    }

    /// Fraction of `points` whose *first* attempt (round 0) is faulted —
    /// what the acceptance criterion "≥ 20 % of jobs killed or poisoned" is
    /// measured against.
    pub fn first_attempt_coverage(&self, points: usize) -> f64 {
        if points == 0 {
            return 0.0;
        }
        let faulted = (0..points)
            .filter(|&point| self.fault_for(point, 0).is_some())
            .count();
        faulted as f64 / points as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_offset_and_attempt_budget_select_points() {
        let plan = GridFaultPlan::kill_every(3, 1);
        assert!(plan.fault_for(0, 0).is_some());
        assert!(plan.fault_for(3, 0).is_some());
        assert!(plan.fault_for(1, 0).is_none());
        // Round budget: first round only.
        assert!(plan.fault_for(3, 1).is_none());
        // Stride 0 matches nothing (instead of dividing by zero).
        let inert = GridFaultPlan::kill_every(0, usize::MAX);
        assert!(inert.fault_for(0, 0).is_none());
    }

    #[test]
    fn first_match_wins_and_coverage_counts_first_attempts() {
        let plan = GridFaultPlan {
            faults: vec![
                GridFault {
                    kind: FaultKind::Poison,
                    stride: 2,
                    offset: 0,
                    attempts: 1,
                },
                GridFault {
                    kind: FaultKind::Kill,
                    stride: 1,
                    offset: 0,
                    attempts: 1,
                },
            ],
        };
        assert_eq!(
            plan.fault_for(4, 0).map(|f| &f.kind),
            Some(&FaultKind::Poison)
        );
        assert_eq!(
            plan.fault_for(5, 0).map(|f| &f.kind),
            Some(&FaultKind::Kill)
        );
        assert_eq!(plan.first_attempt_coverage(10), 1.0);
        assert_eq!(
            GridFaultPlan::kill_every(2, 1).first_attempt_coverage(10),
            0.5
        );
        assert_eq!(GridFaultPlan::default().first_attempt_coverage(10), 0.0);
    }
}
