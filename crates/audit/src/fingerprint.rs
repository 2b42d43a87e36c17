//! Model fingerprinting: a 64-bit FNV-1a digest over everything the
//! certificate audit's arithmetic reads — the CSR layout, the probability
//! buffer, both reward buffers and the initial state. Two models with the
//! same fingerprint present bit-identical inputs to the Bellman-residual
//! passes, so a certificate carries the fingerprint of the arena it was
//! solved on and the auditor refuses to check it against any other arena.

use sm_mdp::{Mdp, TransitionRewards};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher. FNV is not collision-resistant against an
/// adversary crafting arenas; the fingerprint defends against *mix-ups*
/// (auditing a certificate against the wrong instantiation, a stale arena,
/// or silently changed rewards), not against malice — the audit's residual
/// passes are what cannot be fooled.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }
}

impl Fnv1a {
    /// Creates a hasher seeded with the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Absorbs a `u32` slice, each element little-endian.
    pub fn write_u32_slice(&mut self, values: &[u32]) {
        for &value in values {
            self.write_bytes(&value.to_le_bytes());
        }
    }

    /// Absorbs an `f64` slice, each element as its IEEE-754 bit pattern
    /// little-endian (`-0.0` and `0.0` hash differently — bit identity is
    /// the contract).
    pub fn write_f64_slice(&mut self, values: &[f64]) {
        for &value in values {
            self.write_bytes(&value.to_bits().to_le_bytes());
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Fingerprints an arena together with its adversarial and honest reward
/// buffers: section lengths first (so no concatenation of two sections can
/// collide with a different split), then the three layout arrays, the
/// probability buffer, both reward buffers and the initial state.
pub fn model_fingerprint(
    mdp: &Mdp,
    adversary: &TransitionRewards,
    honest: &TransitionRewards,
) -> u64 {
    let layout = mdp.layout();
    let mut hash = Fnv1a::new();
    hash.write_u64(mdp.num_states() as u64);
    hash.write_u64(layout.num_pairs() as u64);
    hash.write_u64(layout.num_transitions() as u64);
    hash.write_u64(mdp.initial_state() as u64);
    hash.write_u32_slice(layout.row_ptr());
    hash.write_u32_slice(layout.action_ptr());
    hash.write_u32_slice(layout.col());
    hash.write_f64_slice(mdp.probabilities());
    hash.write_f64_slice(adversary.values());
    hash.write_f64_slice(honest.values());
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        let digest = |s: &str| {
            let mut h = Fnv1a::new();
            h.write_bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn float_hashing_is_bit_sensitive() {
        let mut a = Fnv1a::new();
        a.write_f64_slice(&[0.0]);
        let mut b = Fnv1a::new();
        b.write_f64_slice(&[-0.0]);
        assert_ne!(a.finish(), b.finish());
    }
}
