//! A small, deterministic, non-cryptographic hash used by the simulated proof
//! systems.
//!
//! The reproduction deliberately avoids external cryptography crates: the
//! analysis only needs *deterministic pseudo-randomness* to derive challenges
//! and simulate lotteries, not collision resistance. The implementation is a
//! 256-bit construction built from four independently-keyed FNV-1a streams
//! followed by an avalanche mix, which is plenty for driving simulations.

/// A 256-bit digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Interprets the first 8 bytes as a big-endian integer, handy for
    /// threshold comparisons in lottery simulations.
    pub fn leading_u64(&self) -> u64 {
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = self.0;
        u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
    }

    /// Maps the digest to a float uniformly distributed in `[0, 1)`.
    pub fn as_unit_interval(&self) -> f64 {
        self.leading_u64() as f64 / (u64::MAX as f64 + 1.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x00000100000001b3;

/// The four FNV-1a lane states, advanced together over the same bytes.
type Lanes = [u64; 4];

/// Lane `i` starts from the FNV offset keyed with seed `i + 1`.
const fn lane_start(seed: u64) -> u64 {
    FNV_OFFSET ^ seed.wrapping_mul(0x9e3779b97f4a7c15)
}

const INITIAL_LANES: Lanes = [lane_start(1), lane_start(2), lane_start(3), lane_start(4)];

/// Absorbs `data` into all four lanes in one pass. The lanes are
/// independent multiply chains, so advancing them together keeps four
/// multiplications in flight instead of one. A `const fn`, so that
/// [`HashTag::new`] runs the very same routine at compile time.
#[inline(always)]
const fn absorb(lanes: Lanes, mut data: &[u8]) -> Lanes {
    let [mut a, mut b, mut c, mut d] = lanes;
    while let [byte, rest @ ..] = data {
        let byte = *byte as u64;
        a = (a ^ byte).wrapping_mul(FNV_PRIME);
        b = (b ^ byte).wrapping_mul(FNV_PRIME);
        c = (c ^ byte).wrapping_mul(FNV_PRIME);
        d = (d ^ byte).wrapping_mul(FNV_PRIME);
        data = rest;
    }
    [a, b, c, d]
}

/// Absorbs one length-prefixed part of a [`hash_concat`] input.
#[inline(always)]
const fn absorb_part(lanes: Lanes, part: &[u8]) -> Lanes {
    absorb(absorb(lanes, &(part.len() as u64).to_be_bytes()), part)
}

fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51afd7ed558ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ceb9fe1a85ec53);
    x ^= x >> 33;
    x
}

fn finish(lanes: Lanes) -> Digest {
    let mut out = [0u8; 32];
    for (chunk, lane) in out.chunks_exact_mut(8).zip(lanes) {
        chunk.copy_from_slice(&avalanche(lane).to_be_bytes());
    }
    Digest(out)
}

/// Absorbs the length-prefixed `parts` after `lanes` and finishes the digest.
fn finish_parts(lanes: Lanes, parts: &[&[u8]]) -> Digest {
    finish(
        parts
            .iter()
            .fold(lanes, |lanes, part| absorb_part(lanes, part)),
    )
}

/// Hashes a byte string into a [`Digest`].
///
/// # Example
///
/// ```
/// let a = sm_proofs::hash_bytes(b"block");
/// let b = sm_proofs::hash_bytes(b"block");
/// let c = sm_proofs::hash_bytes(b"other");
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn hash_bytes(data: &[u8]) -> Digest {
    finish(absorb(INITIAL_LANES, data))
}

/// Hashes the concatenation of several byte strings, with length prefixes so
/// that `("ab", "c")` and `("a", "bc")` hash differently.
pub fn hash_concat(parts: &[&[u8]]) -> Digest {
    finish_parts(INITIAL_LANES, parts)
}

/// A constant first part of [`hash_concat`] inputs, absorbed ahead of time.
///
/// `HashTag::new(tag).hash(parts)` equals `hash_concat(&[tag, parts…])` bit
/// for bit; the tag's lane midstate is computed once, at compile time when
/// the tag is a `const`. Domain-separation tags such as `b"vdf-step"` head
/// every hot hash input of the proof simulators, so this skips their bytes
/// on every call.
///
/// ```
/// use sm_proofs::{hash_concat, HashTag};
///
/// const STEP: HashTag = HashTag::new(b"vdf-step");
/// assert_eq!(STEP.hash(&[b"input"]), hash_concat(&[b"vdf-step", b"input"]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashTag {
    tag: &'static [u8],
    lanes: Lanes,
}

impl HashTag {
    /// Absorbs `tag` as the first, length-prefixed part.
    pub const fn new(tag: &'static [u8]) -> Self {
        HashTag {
            tag,
            lanes: absorb_part(INITIAL_LANES, tag),
        }
    }

    /// The tag bytes this midstate stands for.
    pub fn tag(&self) -> &'static [u8] {
        self.tag
    }

    /// `hash_concat(&[tag, parts…])`, resumed from the tag's midstate.
    pub fn hash(&self, parts: &[&[u8]]) -> Digest {
        finish_parts(self.lanes, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lower-case hex rendering of a digest, for the golden vectors.
    fn to_hex(digest: &Digest) -> String {
        digest.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The original byte-serial construction, kept as the oracle: copy the
    /// length-prefixed parts into one buffer, then run each FNV-1a lane over
    /// it one after another.
    fn oracle_bytes(data: &[u8]) -> Digest {
        let mut out = [0u8; 32];
        for lane in 0..4u64 {
            let mut state = FNV_OFFSET ^ (lane + 1).wrapping_mul(0x9e3779b97f4a7c15);
            for &byte in data {
                state ^= u64::from(byte);
                state = state.wrapping_mul(FNV_PRIME);
            }
            let at = lane as usize * 8;
            out[at..at + 8].copy_from_slice(&avalanche(state).to_be_bytes());
        }
        Digest(out)
    }

    fn oracle_concat(parts: &[&[u8]]) -> Digest {
        let mut buffer = Vec::new();
        for part in parts {
            buffer.extend_from_slice(&(part.len() as u64).to_be_bytes());
            buffer.extend_from_slice(part);
        }
        oracle_bytes(&buffer)
    }

    /// Seeded pseudo-random byte strings of lengths 0..=80.
    fn seeded_inputs(count: usize) -> Vec<Vec<u8>> {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..count)
            .map(|_| {
                let len = next() as usize % 81;
                (0..len).map(|_| next() as u8).collect()
            })
            .collect()
    }

    /// Every tag this crate hashes under, with its midstate.
    const TAGS: [HashTag; 8] = [
        crate::challenge::CHALLENGE,
        crate::challenge::PREDICTABLE_CHALLENGE,
        crate::pospace::PLOT,
        crate::post::POST,
        crate::postake::POSTAKE,
        crate::pow::POW,
        crate::vdf::VDF_SEED,
        crate::vdf::VDF_STEP,
    ];

    #[test]
    fn known_answers_were_recorded_before_the_fused_lanes() {
        let all_bytes: Vec<u8> = (0..=255u8).collect();
        let block = hash_bytes(b"block");
        let height = 7u64.to_be_bytes();
        let bytes: [(&[u8], &str); 4] = [
            (
                b"",
                "6bcb9d63eb8eab8b83d8725b90d9d7e1765ba009ae97681a68f241a58ff05bae",
            ),
            (
                b"a",
                "4e7e6b73b43d4b332d26b223e302f149416a26151a794cf3da3540ed888a29e6",
            ),
            (
                b"block",
                "b3207943345570f1b324675f91e633fbe6dafb0f453b66553f3c8e436492192f",
            ),
            (
                &all_bytes,
                "0e8bf3fe6a463c05f697db46a19392fd30f09dfbeef4313528bb8a2d48492499",
            ),
        ];
        for (data, hex) in bytes {
            assert_eq!(to_hex(&hash_bytes(data)), hex, "hash_bytes({data:?})");
        }
        let concat: [(&[&[u8]], &str); 7] = [
            (
                &[],
                "6bcb9d63eb8eab8b83d8725b90d9d7e1765ba009ae97681a68f241a58ff05bae",
            ),
            (
                &[b""],
                "a260f716567bf1dfa91c683d4f5643cf6085b58157269795d46d9b5bfe410b36",
            ),
            (
                &[b"ab", b"c"],
                "4e20a4a984711474ab89b4d7602e63932056c2b8783753e23c2298f70850fa59",
            ),
            (
                &[b"a", b"bc"],
                "a8c6d2cf459b56fde5a99250d2dca30048f9fad15061c1df83767eae0468a8d3",
            ),
            (
                &[b"vdf-step", &[0u8; 32]],
                "4e34f02d8fadc12c5a9e4c80013b0d22c594c73075ab5ce5e86ef90e3a7c681a",
            ),
            (
                &[b"challenge", &block.0, &height],
                "b5b0be6972bd29a822b5ac1b90bf0906252f805fc550d1d4f3bfdaafd2015c6b",
            ),
            (
                &[&all_bytes, b"", b"x"],
                "b1e6ab5e5e8b5a64f5ef567046279fa22805c7f704db336e1103c2aaf1ee6c06",
            ),
        ];
        for (parts, hex) in concat {
            assert_eq!(to_hex(&hash_concat(parts)), hex, "hash_concat({parts:?})");
        }
    }

    #[test]
    fn fused_lanes_match_the_byte_serial_oracle() {
        let inputs = seeded_inputs(64);
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(hash_bytes(input), oracle_bytes(input), "input {i}");
            let parts: Vec<&[u8]> = inputs[i..inputs.len().min(i + 1 + i % 4)]
                .iter()
                .map(Vec::as_slice)
                .collect();
            assert_eq!(hash_concat(&parts), oracle_concat(&parts), "parts from {i}");
        }
    }

    #[test]
    fn every_tag_midstate_resumes_hash_concat() {
        let inputs = seeded_inputs(24);
        for tag in TAGS {
            for (i, input) in inputs.iter().enumerate() {
                let rest: Vec<&[u8]> = vec![input, &inputs[(i + 7) % inputs.len()]];
                let mut full = vec![tag.tag()];
                full.extend(&rest);
                let expected = oracle_concat(&full);
                assert_eq!(hash_concat(&full), expected);
                assert_eq!(tag.hash(&rest), expected, "tag {:?}", tag.tag());
                assert_eq!(tag.hash(&rest[..1]), oracle_concat(&full[..2]));
            }
            assert_eq!(tag.hash(&[]), oracle_concat(&[tag.tag()]));
        }
    }

    #[test]
    fn hashing_is_deterministic_and_collision_free_on_small_inputs() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u32..1000 {
            let digest = hash_bytes(&i.to_be_bytes());
            assert!(seen.insert(digest), "collision at {i}");
        }
    }

    #[test]
    fn concat_length_prefixing_prevents_ambiguity() {
        assert_ne!(hash_concat(&[b"ab", b"c"]), hash_concat(&[b"a", b"bc"]));
        assert_eq!(hash_concat(&[b"ab", b"c"]), hash_concat(&[b"ab", b"c"]));
    }

    #[test]
    fn unit_interval_mapping_is_in_range_and_spread_out() {
        let mut values = Vec::new();
        for i in 0u32..256 {
            let v = hash_bytes(&i.to_be_bytes()).as_unit_interval();
            assert!((0.0..1.0).contains(&v));
            values.push(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((mean - 0.5).abs() < 0.1, "mean {mean} far from 0.5");
        assert_eq!(Digest::ZERO.leading_u64(), 0);
    }
}
