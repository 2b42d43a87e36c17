//! The serializable certificate artifact: everything an independent checker
//! needs to re-validate one certified solve — the identity of the arena it
//! was produced on (a fingerprint, plus the `(d, f, l, p, γ, scenario)`
//! coordinates to rebuild it), the certified `[β_low, β_up]` bracket, the
//! exported strategy, its claimed revenue and the final bias witness.
//!
//! Emission happens next to the solver ([`CertificateArtifact::from_certified`]
//! consumes a [`CertifiedSolve`]); checking ([`crate::audit_certificate`])
//! touches none of the solver machinery.

use crate::fingerprint::model_fingerprint;
use crate::json::{parse_json, write_json, JsonValue};
use selfish_mining::experiments::CertifiedSolve;
use selfish_mining::SelfishMiningModel;

/// Schema tag of the JSON encoding.
pub const ARTIFACT_SCHEMA: &str = "sm-audit/v1";

/// A serializable certificate of one `(p, γ)` solve. See the module docs;
/// field-by-field this is [`CertifiedSolve`] plus the model coordinates and
/// the arena fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct CertificateArtifact {
    /// Stable label of the attack scenario (`"optimal"`,
    /// `"trail-stubborn(0)"`, …).
    pub scenario: String,
    /// Structural parameter `d` of the topology.
    pub depth: usize,
    /// Structural parameter `f` of the topology.
    pub forks_per_block: usize,
    /// Structural parameter `l` (maximal private fork length).
    pub max_fork_length: usize,
    /// Adversarial resource share of the point.
    pub p: f64,
    /// Switching probability of the point.
    pub gamma: f64,
    /// Precision the bracket was certified at.
    pub epsilon: f64,
    /// FNV-1a digest of the arena the certificate was produced on (layout,
    /// probabilities, both reward buffers) — see [`model_fingerprint`].
    pub fingerprint: u64,
    /// Certified lower end of the revenue bracket.
    pub beta_low: f64,
    /// Certified upper end of the revenue bracket.
    pub beta_up: f64,
    /// Claimed exact expected relative revenue of the exported strategy.
    pub strategy_revenue: f64,
    /// The exported strategy: chosen action index per state.
    pub strategy: Vec<u32>,
    /// Final bias vector of the certifying solve, one entry per state.
    pub bias: Vec<f64>,
}

impl CertificateArtifact {
    /// Packages a certified solve into an artifact, fingerprinting the
    /// arena it was produced on.
    ///
    /// # Errors
    ///
    /// Returns a description if `solve` and `model` disagree on their
    /// parameters (the artifact would fingerprint an arena the bracket does
    /// not belong to) or if a strategy choice does not fit `u32`.
    pub fn from_certified(
        solve: &CertifiedSolve,
        model: &SelfishMiningModel,
    ) -> Result<CertificateArtifact, String> {
        let params = model.params();
        if solve.p.to_bits() != params.p.to_bits()
            || solve.gamma.to_bits() != params.gamma.to_bits()
        {
            return Err(format!(
                "solve is for (p, gamma) = ({}, {}) but the model was instantiated at ({}, {})",
                solve.p, solve.gamma, params.p, params.gamma
            ));
        }
        if solve.scenario != model.scenario() {
            return Err(format!(
                "solve is for scenario {} but the model is {}",
                solve.scenario.label(),
                model.scenario().label()
            ));
        }
        let strategy = solve
            .strategy
            .choices()
            .iter()
            .map(|&choice| {
                u32::try_from(choice).map_err(|_| format!("action index {choice} exceeds u32"))
            })
            .collect::<Result<Vec<u32>, String>>()?;
        Ok(CertificateArtifact {
            scenario: solve.scenario.label(),
            depth: params.depth,
            forks_per_block: params.forks_per_block,
            max_fork_length: params.max_fork_length,
            p: solve.p,
            gamma: solve.gamma,
            epsilon: solve.epsilon,
            fingerprint: model_fingerprint(
                model.mdp(),
                model.adversary_rewards(),
                model.honest_rewards(),
            ),
            beta_low: solve.beta_low,
            beta_up: solve.beta_up,
            strategy_revenue: solve.strategy_revenue,
            strategy,
            bias: solve.bias.clone(),
        })
    }

    /// Serializes the artifact as one JSON document. Floats round-trip bit
    /// for bit (shortest round-trip-exact decimal); the fingerprint is a
    /// 16-digit hex string because JSON numbers cannot carry 64 bits.
    pub fn to_json(&self) -> String {
        let num = JsonValue::Number;
        let root = JsonValue::Object(vec![
            (
                "schema".to_string(),
                JsonValue::String(ARTIFACT_SCHEMA.to_string()),
            ),
            (
                "scenario".to_string(),
                JsonValue::String(self.scenario.clone()),
            ),
            ("depth".to_string(), num(self.depth as f64)),
            (
                "forks_per_block".to_string(),
                num(self.forks_per_block as f64),
            ),
            (
                "max_fork_length".to_string(),
                num(self.max_fork_length as f64),
            ),
            ("p".to_string(), num(self.p)),
            ("gamma".to_string(), num(self.gamma)),
            ("epsilon".to_string(), num(self.epsilon)),
            (
                "fingerprint".to_string(),
                JsonValue::String(format!("{:016x}", self.fingerprint)),
            ),
            ("beta_low".to_string(), num(self.beta_low)),
            ("beta_up".to_string(), num(self.beta_up)),
            ("strategy_revenue".to_string(), num(self.strategy_revenue)),
            (
                "strategy".to_string(),
                JsonValue::Array(self.strategy.iter().map(|&a| num(f64::from(a))).collect()),
            ),
            (
                "bias".to_string(),
                JsonValue::Array(self.bias.iter().map(|&h| num(h)).collect()),
            ),
        ]);
        let mut out = String::new();
        write_json(&root, &mut out);
        out.push('\n');
        out
    }

    /// Parses an artifact from its JSON encoding.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema violation. A
    /// *parseable* artifact with corrupt contents (non-finite bias entries,
    /// inverted brackets, …) parses fine — rejecting it is the auditor's
    /// job, with a named obligation.
    pub fn from_json(input: &str) -> Result<CertificateArtifact, String> {
        let root = parse_json(input)?;
        let schema = root
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("artifact is missing the \"schema\" field")?;
        if schema != ARTIFACT_SCHEMA {
            return Err(format!(
                "unsupported artifact schema {schema:?} (expected {ARTIFACT_SCHEMA:?})"
            ));
        }
        let string_field = |key: &str| {
            root.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("artifact is missing string {key:?}"))
        };
        let usize_field = |key: &str| {
            root.get(key)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| format!("artifact is missing integer {key:?}"))
        };
        let f64_field = |key: &str| {
            root.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("artifact is missing number {key:?}"))
        };
        let fingerprint_hex = string_field("fingerprint")?;
        let fingerprint = u64::from_str_radix(&fingerprint_hex, 16)
            .map_err(|_| format!("malformed fingerprint {fingerprint_hex:?}"))?;
        let strategy = match root.get("strategy") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .enumerate()
                .map(|(index, item)| {
                    item.as_usize()
                        .and_then(|a| u32::try_from(a).ok())
                        .ok_or_else(|| format!("strategy entry #{index} is not a u32"))
                })
                .collect::<Result<Vec<u32>, String>>()?,
            _ => return Err("artifact is missing the \"strategy\" array".to_string()),
        };
        let bias = match root.get("bias") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .enumerate()
                .map(|(index, item)| {
                    item.as_f64()
                        .ok_or_else(|| format!("bias entry #{index} is not a number"))
                })
                .collect::<Result<Vec<f64>, String>>()?,
            _ => return Err("artifact is missing the \"bias\" array".to_string()),
        };
        Ok(CertificateArtifact {
            scenario: string_field("scenario")?,
            depth: usize_field("depth")?,
            forks_per_block: usize_field("forks_per_block")?,
            max_fork_length: usize_field("max_fork_length")?,
            p: f64_field("p")?,
            gamma: f64_field("gamma")?,
            epsilon: f64_field("epsilon")?,
            fingerprint,
            beta_low: f64_field("beta_low")?,
            beta_up: f64_field("beta_up")?,
            strategy_revenue: f64_field("strategy_revenue")?,
            strategy,
            bias,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CertificateArtifact {
        CertificateArtifact {
            scenario: "optimal".to_string(),
            depth: 2,
            forks_per_block: 1,
            max_fork_length: 4,
            p: 0.3,
            gamma: 0.5,
            epsilon: 1e-3,
            fingerprint: 0xdead_beef_cafe_f00d,
            beta_low: 0.3376,
            beta_up: 0.3386,
            strategy_revenue: 0.3376,
            strategy: vec![0, 2, 1],
            bias: vec![0.0, -0.25, 1.5e-7],
        }
    }

    #[test]
    fn artifacts_round_trip_bit_for_bit() {
        let artifact = sample();
        let back = CertificateArtifact::from_json(&artifact.to_json()).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.p.to_bits(), artifact.p.to_bits());
        assert_eq!(back.bias[2].to_bits(), artifact.bias[2].to_bits());
    }

    #[test]
    fn non_finite_bias_entries_survive_the_round_trip_as_nan() {
        let mut artifact = sample();
        artifact.bias[1] = f64::INFINITY;
        let back = CertificateArtifact::from_json(&artifact.to_json()).unwrap();
        // ∞ has no JSON encoding; it degrades to NaN, which the BiasShape
        // obligation rejects — the corruption stays visible.
        assert!(back.bias[1].is_nan());
    }

    #[test]
    fn schema_and_field_violations_are_rejected() {
        assert!(CertificateArtifact::from_json("{}").is_err());
        assert!(CertificateArtifact::from_json(
            "{\"schema\": \"sm-audit/v0\", \"scenario\": \"optimal\"}"
        )
        .is_err());
        let mut json = sample().to_json();
        json = json.replace("\"bias\"", "\"bogus\"");
        assert!(CertificateArtifact::from_json(&json).is_err());
    }
}
