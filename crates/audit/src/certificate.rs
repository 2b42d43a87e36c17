//! The independent certificate checker: ~300 lines of plain arithmetic that
//! re-validate a certified `[β_low, β_up]` bracket with three single Jacobi
//! Bellman-residual passes over the arena — no relative value iteration, no
//! Dinkelbach loop, no warm starts, no solver imports.
//!
//! # Why single passes suffice
//!
//! For the mean-payoff MDP with rewards `r_β = r_A − β(r_A + r_H)` the lazy
//! Bellman operator `T_τ h = (1−τ) h + τ T h` satisfies the *residual
//! sandwich*
//!
//! ```text
//!     min_s (T_τ h − h)(s)  ≤  g*(β)  ≤  max_s (T_τ h − h)(s)
//! ```
//!
//! for **any** finite bias vector `h` (`g*` is the optimal gain; the lazy
//! chain has the same stationary distribution and the same gain as the
//! original). The certificate carries the producer's final bias as a
//! witness; one residual pass over it at `β_low` proves `g*(β_low) ≥ −tol`
//! (so `ERRev* ≥ β_low` up to tolerance), one pass at `β_up` proves
//! `g*(β_up) ≤ tol` (so `ERRev* ≤ β_up`), and one *policy-restricted* pass
//! under the exported strategy at `β = strategy_revenue` proves the
//! strategy's gain at its own claimed revenue is zero — which pins the
//! claimed revenue to the strategy's actual expected relative revenue.
//!
//! Soundness does not depend on the quality of the witness: a dishonest
//! bracket forces the corresponding residual check to fail for *every*
//! bias. The witness quality only affects completeness — how tight the
//! tolerance can be while honest certificates still pass — which is why the
//! bias the producer converged to is the natural thing to ship.

use crate::artifact::CertificateArtifact;
use crate::fingerprint::model_fingerprint;
use crate::report::{AuditReport, Obligation, ObligationOutcome};
use selfish_mining::SelfishMiningModel;

/// Configuration of the certificate audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Laziness `τ` of the residual operator. The sandwich holds for any
    /// `τ ∈ (0, 1]`; matching the producer's relative-value-iteration
    /// laziness (0.95) keeps the audited residuals on the same scale the
    /// producer converged on, so the default tolerance stays tight.
    pub laziness: f64,
    /// Multiplier on the derived residual tolerances. 1.0 audits at the
    /// tolerance the producer's `ε` justifies; raising it trades rejection
    /// power for slack, lowering it rejects honest certificates.
    pub tolerance_scale: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            laziness: 0.95,
            tolerance_scale: 1.0,
        }
    }
}

/// The residual tolerances one audit runs with, derived from the artifact's
/// `ε` and the arena's reward magnitudes (see [`derive_tolerances`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditTolerances {
    /// Bound-pass tolerance: `LowerBound` requires `min Δ(β_low) ≥ −bound`,
    /// `UpperBound` requires `max Δ(β_up) ≤ bound`, and `BiasResidualSpan`
    /// requires `max Δ(β_low) − min Δ(β_low) ≤ bound`.
    pub bound: f64,
    /// Chain-pass tolerance: `RevenueConsistent` requires the restricted
    /// residuals at `β = strategy_revenue` to straddle zero within it.
    pub chain: f64,
}

/// Derives the audit tolerances for a certificate of precision `epsilon` on
/// an arena whose per-pair expected total reward (`r_A + r_H`) peaks at
/// `r_total_max`.
///
/// The producer's witness was converged (residual span ≤ `ε/100`) at a
/// Dinkelbach β within `ε` of `β_low` and within `2ε` of `β_up`; shifting β
/// by `δ` shifts each state's residual by at most `δ · r_total_max`. The
/// chain pass additionally tolerates the strategy-extraction tie cutoff
/// (`32 · ε/100`). Everything is scaled by [`AuditConfig::tolerance_scale`].
pub fn derive_tolerances(epsilon: f64, r_total_max: f64, config: &AuditConfig) -> AuditTolerances {
    let scale = config.tolerance_scale;
    AuditTolerances {
        bound: scale * epsilon * (0.05 + 2.0 * r_total_max),
        chain: scale * epsilon * (0.4 + 2.0 * r_total_max),
    }
}

/// Expected `(r_A, r_H)` one-step rewards `(e_A, e_H)` of arena pair `pair`.
fn expected_counts(model: &SelfishMiningModel, pair: usize) -> (f64, f64) {
    let mdp = model.mdp();
    (
        mdp.expected_pair_reward(pair, model.adversary_rewards()[pair]),
        mdp.expected_pair_reward(pair, model.honest_rewards()[pair]),
    )
}

/// Expected `r_β` one-step reward `e_β = e_A − β (e_A + e_H)` of `pair`.
fn expected_at(model: &SelfishMiningModel, pair: usize, beta: f64) -> f64 {
    let (a, h) = expected_counts(model, pair);
    a - beta * (a + h)
}

/// Min/max residual of one full (max-over-actions) lazy Bellman pass:
/// `Δ(s) = max_a [ e_β(s, a) + τ Σ_t P(t | s, a) h(t) + (1 − τ) h(s) ] − h(s)`.
///
/// This replicates the producer's sweep arithmetic (same lazy operator,
/// same per-pair expected rewards) in ~25 lines; residuals are invariant
/// under adding a constant to `h`, so no renormalisation is needed.
fn bellman_residuals(model: &SelfishMiningModel, beta: f64, h: &[f64], tau: f64) -> (f64, f64) {
    let mdp = model.mdp();
    let layout = mdp.layout();
    let row_ptr = layout.row_ptr();
    let action_ptr = layout.action_ptr();
    let col = layout.col();
    let prob = mdp.probabilities();
    let mut min_delta = f64::INFINITY;
    let mut max_delta = f64::NEG_INFINITY;
    for s in 0..mdp.num_states() {
        let h_s = h[s];
        let lazy = (1.0 - tau) * h_s;
        let mut best = f64::NEG_INFINITY;
        for pair in row_ptr[s] as usize..row_ptr[s + 1] as usize {
            let mut acc = 0.0;
            for k in action_ptr[pair] as usize..action_ptr[pair + 1] as usize {
                acc += prob[k] * h[col[k] as usize];
            }
            let value = expected_at(model, pair, beta) + tau * acc + lazy;
            best = best.max(value);
        }
        let delta = best - h_s;
        min_delta = min_delta.min(delta);
        max_delta = max_delta.max(delta);
    }
    (min_delta, max_delta)
}

/// Min/max residual of one policy-restricted lazy pass: as
/// [`bellman_residuals`], but each state contributes only its chosen
/// action's value — the residuals of the Markov chain the strategy induces.
fn chain_residuals(
    model: &SelfishMiningModel,
    beta: f64,
    h: &[f64],
    tau: f64,
    strategy: &[u32],
) -> (f64, f64) {
    let mdp = model.mdp();
    let layout = mdp.layout();
    let row_ptr = layout.row_ptr();
    let action_ptr = layout.action_ptr();
    let col = layout.col();
    let prob = mdp.probabilities();
    let mut min_delta = f64::INFINITY;
    let mut max_delta = f64::NEG_INFINITY;
    for s in 0..mdp.num_states() {
        let h_s = h[s];
        let pair = row_ptr[s] as usize + strategy[s] as usize;
        let mut acc = 0.0;
        for k in action_ptr[pair] as usize..action_ptr[pair + 1] as usize {
            acc += prob[k] * h[col[k] as usize];
        }
        let delta = expected_at(model, pair, beta) + tau * acc + (1.0 - tau) * h_s - h_s;
        min_delta = min_delta.min(delta);
        max_delta = max_delta.max(delta);
    }
    (min_delta, max_delta)
}

/// Audits one certificate against the arena it claims to certify, checking
/// every [`Obligation`] and returning the typed verdict. The checking path
/// reads only the artifact and the arena (layout, probabilities, reward
/// tables) — none of the solver machinery.
///
/// The caller re-instantiates the model from the artifact's coordinates
/// (`ParametricModel::build(depth, f, l)` + `instantiate(p, γ)`); the
/// `Fingerprint` obligation then proves the instantiation is bit-identical
/// to the arena the certificate was produced on.
pub fn audit_certificate(
    artifact: &CertificateArtifact,
    model: &SelfishMiningModel,
    config: &AuditConfig,
) -> AuditReport {
    let mdp = model.mdp();
    let n = mdp.num_states();
    let mut outcomes = Vec::with_capacity(Obligation::ALL.len());
    let mut record = |obligation: Obligation, passed: bool, detail: String| {
        outcomes.push(ObligationOutcome {
            obligation,
            passed,
            detail,
        });
        passed
    };

    // Obligation 1: the arena is the one the certificate was produced on.
    let expected_fingerprint =
        model_fingerprint(mdp, model.adversary_rewards(), model.honest_rewards());
    let params = model.params();
    let identity_ok = artifact.fingerprint == expected_fingerprint
        && artifact.scenario == model.scenario().label()
        && artifact.depth == params.depth
        && artifact.forks_per_block == params.forks_per_block
        && artifact.max_fork_length == params.max_fork_length
        && artifact.p.to_bits() == params.p.to_bits()
        && artifact.gamma.to_bits() == params.gamma.to_bits()
        && artifact.epsilon.is_finite()
        && artifact.epsilon > 0.0;
    record(
        Obligation::Fingerprint,
        identity_ok,
        if identity_ok {
            format!("arena digest {:016x}", expected_fingerprint)
        } else {
            format!(
                "artifact {:016x} vs arena {:016x} (or parameter mismatch)",
                artifact.fingerprint, expected_fingerprint
            )
        },
    );

    // Obligation 2: the strategy chooses one in-range action per state.
    let strategy_ok = artifact.strategy.len() == n
        && artifact
            .strategy
            .iter()
            .enumerate()
            .all(|(s, &a)| (a as usize) < mdp.num_actions(s));
    record(
        Obligation::StrategyTotality,
        strategy_ok,
        if strategy_ok {
            format!("{n} states, all choices in range")
        } else if artifact.strategy.len() != n {
            format!("strategy covers {} of {n} states", artifact.strategy.len())
        } else {
            "some choice indexes a non-existent action".to_string()
        },
    );

    // Obligation 3: the bias witness has one finite entry per state.
    let bias_ok = artifact.bias.len() == n && artifact.bias.iter().all(|h| h.is_finite());
    record(
        Obligation::BiasShape,
        bias_ok,
        if bias_ok {
            format!("{n} finite entries")
        } else {
            format!(
                "{} entries ({} non-finite) for {n} states",
                artifact.bias.len(),
                artifact.bias.iter().filter(|h| !h.is_finite()).count()
            )
        },
    );

    // Obligation 4: the bracket is ordered, inside [0, 1], no wider than ε.
    let width = artifact.beta_up - artifact.beta_low;
    let interval_ok = artifact.beta_low.is_finite()
        && artifact.beta_up.is_finite()
        && artifact.beta_low >= 0.0
        && artifact.beta_up <= 1.0
        && width >= 0.0
        && width <= artifact.epsilon * (1.0 + 1e-12);
    record(
        Obligation::BetaInterval,
        interval_ok,
        format!(
            "[{:.6}, {:.6}], width {:.3e} (ε = {:.1e})",
            artifact.beta_low, artifact.beta_up, width, artifact.epsilon
        ),
    );

    // Obligation 5: the claimed revenue lies inside the bracket.
    let revenue_ok = artifact.strategy_revenue >= artifact.beta_low
        && artifact.strategy_revenue <= artifact.beta_up;
    record(
        Obligation::RevenueInBracket,
        revenue_ok,
        format!(
            "ρ = {:.6} vs [{:.6}, {:.6}]",
            artifact.strategy_revenue, artifact.beta_low, artifact.beta_up
        ),
    );

    // The residual passes need a fingerprint-verified arena, a total
    // strategy and a well-shaped bias; without them there is nothing sound
    // to compute, so the remaining obligations fail as skipped.
    if !(identity_ok && strategy_ok && bias_ok) {
        for obligation in [
            Obligation::BiasResidualSpan,
            Obligation::LowerBound,
            Obligation::UpperBound,
            Obligation::RevenueConsistent,
        ] {
            record(
                obligation,
                false,
                "skipped: prerequisite obligation failed".to_string(),
            );
        }
        return AuditReport { outcomes };
    }

    // Per-pair expected rewards of both objectives are formed where each
    // pass reads them, so no pass allocates.
    let r_total_max = (0..mdp.num_pairs()).fold(0.0_f64, |acc, pair| {
        let (a, h) = expected_counts(model, pair);
        acc.max(a + h)
    });
    let tolerances = derive_tolerances(artifact.epsilon, r_total_max, config);
    let tau = config.laziness;

    // Pass A, at β_low: span of the witness + the lower bound.
    let (low_min, low_max) = bellman_residuals(model, artifact.beta_low, &artifact.bias, tau);
    let span = low_max - low_min;
    record(
        Obligation::BiasResidualSpan,
        span <= tolerances.bound,
        format!("span {:.3e} vs tolerance {:.3e}", span, tolerances.bound),
    );
    record(
        Obligation::LowerBound,
        low_min >= -tolerances.bound,
        format!(
            "min Δ(β_low) = {:.3e} vs -{:.3e}",
            low_min, tolerances.bound
        ),
    );

    // Pass B, at β_up: the upper bound.
    let (_, up_max) = bellman_residuals(model, artifact.beta_up, &artifact.bias, tau);
    record(
        Obligation::UpperBound,
        up_max <= tolerances.bound,
        format!("max Δ(β_up) = {:.3e} vs {:.3e}", up_max, tolerances.bound),
    );

    // Pass C, restricted to the exported strategy at β = ρ. For an honest
    // certificate the witness is converged *for this chain* at β ≈ ρ, so
    // every restricted residual is near zero; the sandwich then pins the
    // chain's gain at ρ to `[min Δ, max Δ] ⊆ [−tol, tol]`, i.e. the claimed
    // revenue is the strategy's actual revenue. Requiring only that the
    // residuals straddle zero would be weaker: a foreign strategy's wide
    // residual interval straddles zero without certifying anything.
    let (chain_min, chain_max) = chain_residuals(
        model,
        artifact.strategy_revenue,
        &artifact.bias,
        tau,
        &artifact.strategy,
    );
    record(
        Obligation::RevenueConsistent,
        chain_min >= -tolerances.chain && chain_max <= tolerances.chain,
        format!(
            "restricted Δ(ρ) ∈ [{:.3e}, {:.3e}] vs ±{:.3e}",
            chain_min, chain_max, tolerances.chain
        ),
    );

    AuditReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerances_scale_with_epsilon_and_rewards() {
        let config = AuditConfig::default();
        let t1 = derive_tolerances(1e-3, 2.0, &config);
        let t2 = derive_tolerances(1e-2, 2.0, &config);
        assert!(t2.bound > t1.bound);
        assert!(t1.chain > t1.bound);
        let scaled = derive_tolerances(
            1e-3,
            2.0,
            &AuditConfig {
                tolerance_scale: 2.0,
                ..AuditConfig::default()
            },
        );
        assert!((scaled.bound - 2.0 * t1.bound).abs() < 1e-15);
    }
}
