//! Closed-form relative revenue of the classic proof-of-work selfish-mining
//! attack of Eyal and Sirer ("Majority is not enough", 2014/2018).
//!
//! The formula is used as a *trend anchor*: the efficient-proof-system attack
//! of this crate should (a) reduce to comparable behaviour when the adversary
//! is restricted to a single fork on the tip and (b) dominate it once multiple
//! forks are allowed. It also reproduces the two classic security thresholds
//! quoted in the paper's related-work discussion: profitability above
//! `p = 1/3` for `γ = 0` and above `p = 1/4` for `γ = 1/2`.

use crate::SelfishMiningError;

/// Relative revenue of the Eyal–Sirer selfish-mining strategy in a
/// proof-of-work longest-chain blockchain, for adversarial hash-rate share
/// `p` and switching probability `gamma`.
///
/// The expression is Equation (8) of the original paper:
///
/// ```text
/// R = [ p(1−p)²(4p + γ(1−2p)) − p³ ] / [ 1 − p(1 + (2−p)p) ]
/// ```
///
/// # Errors
///
/// Returns [`SelfishMiningError::InvalidParameter`] if `p` or `gamma` lie
/// outside `[0, 1]` (the formula's denominator also vanishes at `p = 1`, which
/// is rejected).
///
/// # Example
///
/// ```
/// use selfish_mining::baselines::eyal_sirer_relative_revenue;
///
/// // Below the γ = 0 profitability threshold of 1/3 selfish mining loses.
/// let r = eyal_sirer_relative_revenue(0.3, 0.0).unwrap();
/// assert!(r < 0.3);
/// // Above it, selfish mining wins.
/// let r = eyal_sirer_relative_revenue(0.4, 0.0).unwrap();
/// assert!(r > 0.4);
/// ```
pub fn eyal_sirer_relative_revenue(p: f64, gamma: f64) -> Result<f64, SelfishMiningError> {
    if !(0.0..1.0).contains(&p) || !p.is_finite() {
        return Err(SelfishMiningError::InvalidParameter {
            name: "p",
            constraint: "must lie in [0, 1)",
        });
    }
    if !(0.0..=1.0).contains(&gamma) || !gamma.is_finite() {
        return Err(SelfishMiningError::InvalidParameter {
            name: "gamma",
            constraint: "must lie in [0, 1]",
        });
    }
    let numerator = p * (1.0 - p) * (1.0 - p) * (4.0 * p + gamma * (1.0 - 2.0 * p)) - p.powi(3);
    let denominator = 1.0 - p * (1.0 + (2.0 - p) * p);
    Ok((numerator / denominator).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_thresholds_are_reproduced() {
        // γ = 0: threshold 1/3; γ = 1/2: threshold 1/4; γ = 1: threshold 0.
        // Selfish mining loses just below a threshold and wins just above.
        let advantage = |p: f64, gamma: f64| eyal_sirer_relative_revenue(p, gamma).unwrap() - p;
        for (gamma, threshold) in [(0.0, 1.0 / 3.0), (0.5, 0.25)] {
            assert!(advantage(threshold - 1e-3, gamma) < 0.0, "gamma {gamma}");
            assert!(advantage(threshold + 1e-3, gamma) > 0.0, "gamma {gamma}");
        }
        assert!(advantage(1e-3, 1.0) > 0.0);
    }

    #[test]
    fn revenue_is_monotone_in_gamma() {
        for p in [0.1, 0.2, 0.3, 0.4] {
            let r0 = eyal_sirer_relative_revenue(p, 0.0).unwrap();
            let r5 = eyal_sirer_relative_revenue(p, 0.5).unwrap();
            let r1 = eyal_sirer_relative_revenue(p, 1.0).unwrap();
            assert!(r0 <= r5 + 1e-12 && r5 <= r1 + 1e-12);
        }
    }

    #[test]
    fn revenue_vanishes_with_no_resource() {
        assert_eq!(eyal_sirer_relative_revenue(0.0, 0.7).unwrap(), 0.0);
    }

    #[test]
    fn rejects_out_of_range_parameters() {
        assert!(eyal_sirer_relative_revenue(1.0, 0.5).is_err());
        assert!(eyal_sirer_relative_revenue(-0.1, 0.5).is_err());
        assert!(eyal_sirer_relative_revenue(0.3, 1.5).is_err());
    }
}
