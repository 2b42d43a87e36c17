//! Typed audit verdicts: the certificate audit checks a fixed list of
//! obligations and reports pass/fail (with a human-readable detail) for
//! every one of them — a failed audit names exactly which obligation broke,
//! which is what the mutation tests pin.

use std::fmt;

/// One obligation of the certificate audit. The order is the order the
/// auditor checks (shape obligations first; the three residual passes only
/// run when the shapes they read are sound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Obligation {
    /// The arena presented for checking is bit-identical (layout,
    /// probabilities, rewards) to the arena the certificate was produced on,
    /// and the artifact's parameters match the model's.
    Fingerprint,
    /// The exported strategy chooses exactly one in-range action for every
    /// state of the arena.
    StrategyTotality,
    /// The bias witness has one finite entry per state.
    BiasShape,
    /// `0 ≤ β_low ≤ β_up ≤ 1` and the bracket is no wider than `ε`.
    BetaInterval,
    /// The claimed strategy revenue lies inside `[β_low, β_up]`.
    RevenueInBracket,
    /// The Bellman residuals of the bias at `β_low` have span ≤ tolerance —
    /// the witness really is an `ε`-converged bias for this arena, not an
    /// arbitrary vector.
    BiasResidualSpan,
    /// At `β_low`, `min_s Δ(s) ≥ −tol`: by the residual sandwich
    /// `min Δ ≤ g*(β_low)` (valid for *any* bias), the optimal gain at
    /// `β_low` is non-negative up to tolerance, i.e. `ERRev* ≥ β_low`.
    LowerBound,
    /// At `β_up`, `max_s Δ(s) ≤ tol`: by `g*(β_up) ≤ max Δ`, the optimal
    /// gain at `β_up` is non-positive up to tolerance, i.e. `ERRev* ≤ β_up`.
    UpperBound,
    /// Under the exported strategy at `β = strategy_revenue`, every
    /// policy-restricted residual is within tolerance of zero: the sandwich
    /// then pins the chain's gain at `ρ` to `≈ 0`, so the claimed revenue is
    /// the strategy's actual expected relative revenue (up to tolerance).
    RevenueConsistent,
}

impl Obligation {
    /// Every obligation, in checking order.
    pub const ALL: [Obligation; 9] = [
        Obligation::Fingerprint,
        Obligation::StrategyTotality,
        Obligation::BiasShape,
        Obligation::BetaInterval,
        Obligation::RevenueInBracket,
        Obligation::BiasResidualSpan,
        Obligation::LowerBound,
        Obligation::UpperBound,
        Obligation::RevenueConsistent,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Obligation::Fingerprint => "fingerprint",
            Obligation::StrategyTotality => "strategy-totality",
            Obligation::BiasShape => "bias-shape",
            Obligation::BetaInterval => "beta-interval",
            Obligation::RevenueInBracket => "revenue-in-bracket",
            Obligation::BiasResidualSpan => "bias-residual-span",
            Obligation::LowerBound => "lower-bound",
            Obligation::UpperBound => "upper-bound",
            Obligation::RevenueConsistent => "revenue-consistent",
        }
    }
}

impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Verdict for one obligation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObligationOutcome {
    /// The obligation checked.
    pub obligation: Obligation,
    /// Whether it holds.
    pub passed: bool,
    /// Human-readable detail: the checked quantity and its tolerance on
    /// pass, the violation on fail. Residual obligations that could not run
    /// because a shape obligation failed report `skipped: …` and count as
    /// failed — an unverifiable certificate is not a verified one.
    pub detail: String,
}

/// The typed result of one certificate audit: one verdict per
/// [`Obligation`], in checking order.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Per-obligation verdicts.
    pub outcomes: Vec<ObligationOutcome>,
}

impl AuditReport {
    /// Whether every obligation passed.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|outcome| outcome.passed)
    }

    /// The obligations that failed, in checking order.
    pub fn failures(&self) -> Vec<Obligation> {
        self.outcomes
            .iter()
            .filter(|outcome| !outcome.passed)
            .map(|outcome| outcome.obligation)
            .collect()
    }

    /// The verdict for one obligation, if it was checked.
    pub fn outcome(&self, obligation: Obligation) -> Option<&ObligationOutcome> {
        self.outcomes
            .iter()
            .find(|outcome| outcome.obligation == obligation)
    }

    /// Whether a specific obligation failed.
    pub fn failed(&self, obligation: Obligation) -> bool {
        self.outcome(obligation).is_some_and(|o| !o.passed)
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for outcome in &self.outcomes {
            writeln!(
                f,
                "  [{}] {:<20} {}",
                if outcome.passed { "pass" } else { "FAIL" },
                outcome.obligation.name(),
                outcome.detail
            )?;
        }
        write!(f, "  => {}", if self.passed() { "PASS" } else { "FAIL" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates_and_names_failures() {
        let report = AuditReport {
            outcomes: vec![
                ObligationOutcome {
                    obligation: Obligation::Fingerprint,
                    passed: true,
                    detail: "matches".to_string(),
                },
                ObligationOutcome {
                    obligation: Obligation::LowerBound,
                    passed: false,
                    detail: "min residual -0.1".to_string(),
                },
            ],
        };
        assert!(!report.passed());
        assert_eq!(report.failures(), vec![Obligation::LowerBound]);
        assert!(report.failed(Obligation::LowerBound));
        assert!(!report.failed(Obligation::Fingerprint));
        let rendered = report.to_string();
        assert!(rendered.contains("FAIL"));
        assert!(rendered.contains("lower-bound"));
    }

    #[test]
    fn obligation_names_are_unique() {
        let names: std::collections::BTreeSet<&str> =
            Obligation::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(names.len(), Obligation::ALL.len());
    }
}
