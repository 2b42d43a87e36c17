//! Attack and system-model parameters (Section 3.2, "Model parameters").

use crate::SelfishMiningError;

/// Validates that a probability-like parameter (`p`, `gamma`, …) is finite
/// and lies in `[0, 1]`.
///
/// Shared by [`AttackParams::validate`], the sweep engine's up-front grid
/// validation and the query service's request validation, so every entry
/// point rejects `NaN`/out-of-range shares with the same typed error before
/// any solver work starts. Delegates to `sm_chain::validate_share` — the
/// canonical check also guarding the arrival-source constructors — so the
/// chain and model layers reject exactly the same inputs with the same
/// wording.
///
/// # Errors
///
/// Returns [`SelfishMiningError::InvalidParameter`] naming the offending
/// parameter when the value is `NaN`, infinite or outside `[0, 1]`.
pub fn validate_share(name: &'static str, value: f64) -> Result<(), SelfishMiningError> {
    sm_chain::validate_share(name, value)?;
    Ok(())
}

/// Validates that a certificate width `ε` is finite and strictly positive.
///
/// # Errors
///
/// Returns [`SelfishMiningError::InvalidParameter`] when `ε` is `NaN`,
/// infinite, zero or negative — a non-finite width would make every
/// Dinkelbach bracket test vacuous and the iteration non-terminating.
pub fn validate_epsilon(value: f64) -> Result<(), SelfishMiningError> {
    if !value.is_finite() || value <= 0.0 {
        return Err(SelfishMiningError::InvalidParameter {
            name: "epsilon",
            constraint: "must be finite and strictly positive",
        });
    }
    Ok(())
}

/// Parameters of the selfish-mining attack MDP.
///
/// * `p` — relative resource of the adversary, the fraction of the total
///   mining resource (stake / space / space-time) the coalition controls.
/// * `gamma` — switching probability: the probability that honest miners
///   adopt a newly revealed adversarial chain when it ties with the public
///   chain.
/// * `depth` (the paper's `d`) — attack depth: the adversary grows private
///   forks rooted at each of the last `d` blocks of the main chain.
/// * `forks_per_block` (the paper's `f`) — number of private fork slots per
///   main-chain block.
/// * `max_fork_length` (the paper's `l`) — maximal length of a private fork,
///   which keeps the MDP finite.
///
/// # Example
///
/// ```
/// use selfish_mining::AttackParams;
///
/// let params = AttackParams::new(0.3, 0.5, 2, 2, 4).unwrap();
/// assert_eq!(params.depth, 2);
/// assert!(AttackParams::new(1.5, 0.5, 2, 2, 4).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackParams {
    /// Relative resource of the adversary, `p ∈ [0, 1]`.
    pub p: f64,
    /// Switching probability, `γ ∈ [0, 1]`.
    pub gamma: f64,
    /// Attack depth `d ≥ 1`.
    pub depth: usize,
    /// Forking number `f ≥ 1` (private forks per main-chain block).
    pub forks_per_block: usize,
    /// Maximal private fork length `1 ≤ l ≤ 255`.
    pub max_fork_length: usize,
}

impl AttackParams {
    /// Creates and validates a parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`SelfishMiningError::InvalidParameter`] if `p` or `gamma` lie
    /// outside `[0, 1]` or any of the structural parameters is zero.
    pub fn new(
        p: f64,
        gamma: f64,
        depth: usize,
        forks_per_block: usize,
        max_fork_length: usize,
    ) -> Result<Self, SelfishMiningError> {
        let params = AttackParams {
            p,
            gamma,
            depth,
            forks_per_block,
            max_fork_length,
        };
        params.validate()?;
        Ok(params)
    }

    /// Validates the parameter ranges.
    ///
    /// # Errors
    ///
    /// See [`AttackParams::new`].
    pub fn validate(&self) -> Result<(), SelfishMiningError> {
        validate_share("p", self.p)?;
        validate_share("gamma", self.gamma)?;
        if self.depth == 0 {
            return Err(SelfishMiningError::InvalidParameter {
                name: "depth",
                constraint: "must be at least 1",
            });
        }
        if self.forks_per_block == 0 {
            return Err(SelfishMiningError::InvalidParameter {
                name: "forks_per_block",
                constraint: "must be at least 1",
            });
        }
        // Fork lengths are stored as `u8`: a larger `l` would wrap the cap.
        if self.max_fork_length == 0 || self.max_fork_length > usize::from(u8::MAX) {
            return Err(SelfishMiningError::InvalidParameter {
                name: "max_fork_length",
                constraint: "must lie in 1..=255",
            });
        }
        Ok(())
    }

    /// The paper's experimental default: `l = 4` and the given `(d, f)`.
    ///
    /// # Errors
    ///
    /// Same as [`AttackParams::new`].
    pub fn paper_configuration(
        p: f64,
        gamma: f64,
        depth: usize,
        forks_per_block: usize,
    ) -> Result<Self, SelfishMiningError> {
        AttackParams::new(p, gamma, depth, forks_per_block, 4)
    }

    /// Upper bound on the number of states of the full (unreduced) product
    /// state space `(l+1)^{d·f} · 2^{d−1} · 3`, saturating at [`u128::MAX`].
    /// The reachable state space constructed by the model builder is usually
    /// much smaller.
    ///
    /// Exponents that do not fit a `u32` saturate the bound instead of being
    /// truncated: the historical `(d · f) as u32` cast silently wrapped for
    /// adversarial inputs (e.g. `d = 2³² + 2, f = 1` reported the bound of
    /// `d = 2`), turning an over-approximation into an under-approximation.
    pub fn state_space_upper_bound(&self) -> u128 {
        let fork_exponent = self
            .depth
            .checked_mul(self.forks_per_block)
            .and_then(|cells| u32::try_from(cells).ok());
        let fork_configs = fork_exponent
            .and_then(|exponent| (self.max_fork_length as u128 + 1).checked_pow(exponent))
            .unwrap_or(u128::MAX);
        let owner_configs = u32::try_from(self.depth.saturating_sub(1))
            .ok()
            .and_then(|exponent| 2u128.checked_pow(exponent))
            .unwrap_or(u128::MAX);
        fork_configs.saturating_mul(owner_configs).saturating_mul(3)
    }
}

impl Default for AttackParams {
    /// The smallest interesting configuration from the paper's grid:
    /// `p = 0.3`, `γ = 0.5`, `d = 2`, `f = 1`, `l = 4`.
    fn default() -> Self {
        AttackParams {
            p: 0.3,
            gamma: 0.5,
            depth: 2,
            forks_per_block: 1,
            max_fork_length: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_paper_grid_configurations() {
        for &(d, f) in &[(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)] {
            for &gamma in &[0.0, 0.25, 0.5, 0.75, 1.0] {
                assert!(AttackParams::paper_configuration(0.3, gamma, d, f).is_ok());
            }
        }
    }

    #[test]
    fn rejects_out_of_range_probabilities() {
        assert!(AttackParams::new(-0.1, 0.5, 1, 1, 1).is_err());
        assert!(AttackParams::new(1.1, 0.5, 1, 1, 1).is_err());
        assert!(AttackParams::new(0.3, -0.5, 1, 1, 1).is_err());
        assert!(AttackParams::new(0.3, 2.0, 1, 1, 1).is_err());
        assert!(AttackParams::new(f64::NAN, 0.5, 1, 1, 1).is_err());
    }

    #[test]
    fn rejects_zero_structural_parameters() {
        assert!(AttackParams::new(0.3, 0.5, 0, 1, 1).is_err());
        assert!(AttackParams::new(0.3, 0.5, 1, 0, 1).is_err());
        assert!(AttackParams::new(0.3, 0.5, 1, 1, 0).is_err());
    }

    #[test]
    fn state_space_bound_matches_manual_computation() {
        let params = AttackParams::new(0.3, 0.5, 2, 2, 4).unwrap();
        // (4+1)^(2*2) * 2^(2-1) * 3 = 625 * 2 * 3 = 3750
        assert_eq!(params.state_space_upper_bound(), 3750);
    }

    #[test]
    fn default_is_valid() {
        assert!(AttackParams::default().validate().is_ok());
    }

    #[test]
    fn share_and_epsilon_helpers_reject_non_finite_inputs() {
        assert!(validate_share("p", 0.0).is_ok());
        assert!(validate_share("p", 1.0).is_ok());
        assert!(validate_share("gamma", f64::NAN).is_err());
        assert!(validate_share("gamma", f64::INFINITY).is_err());
        assert!(validate_share("p", -0.001).is_err());
        assert!(validate_epsilon(1e-4).is_ok());
        assert!(validate_epsilon(0.0).is_err());
        assert!(validate_epsilon(-1e-4).is_err());
        assert!(validate_epsilon(f64::NAN).is_err());
        assert!(validate_epsilon(f64::INFINITY).is_err());
    }

    #[test]
    fn state_space_bound_saturates_for_huge_exponents() {
        // A merely-large exponent already saturates through checked_pow.
        let large = AttackParams {
            depth: 5_000,
            ..AttackParams::default()
        };
        assert_eq!(large.state_space_upper_bound(), u128::MAX);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn state_space_bound_saturates_at_the_u32_wrap_boundary() {
        // Regression: `d · f = 2³² + 2` used to be cast `as u32`, wrapping to
        // an exponent of 2 and reporting the tiny bound of `d = 2` — an
        // under-approximation. It must saturate instead.
        let wrapped = AttackParams {
            depth: (1usize << 32) + 2,
            forks_per_block: 1,
            ..AttackParams::default()
        };
        assert_eq!(wrapped.state_space_upper_bound(), u128::MAX);
        // `d · f` overflowing usize itself saturates too.
        let overflowing = AttackParams {
            depth: usize::MAX,
            forks_per_block: 2,
            ..AttackParams::default()
        };
        assert_eq!(overflowing.state_space_upper_bound(), u128::MAX);
    }
}
