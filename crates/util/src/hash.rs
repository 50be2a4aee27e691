//! FNV-1a hashing — the content-address function of the solve cache —
//! and the splitmix64 finalizer [`mix64`].
//!
//! The service layer hashes the canonical wire bytes of a solve request
//! (see [`crate::json`]) with 64-bit FNV-1a to pick a cache shard and a
//! bucket. FNV is tiny, allocation-free, and fully deterministic across
//! processes and platforms — exactly what a content-addressed cache key
//! needs (`std`'s default `SipHash` is randomly keyed per process).
//!
//! # Examples
//!
//! ```
//! use bi_util::fnv1a;
//!
//! // The well-known FNV-1a test vectors.
//! assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
//! assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
//! ```

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The splitmix64 increment (the golden-ratio gamma `⌊2^64/φ⌋`, odd).
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a bijective avalanche over `u64`, so
/// inputs that differ in a few low bits land far apart. One step of the
/// splitmix64 generator is `mix64(state += GOLDEN_GAMMA)`.
///
/// # Examples
///
/// ```
/// use bi_util::hash::{mix64, GOLDEN_GAMMA};
///
/// // splitmix64 seeded with 0: its first output.
/// assert_eq!(mix64(GOLDEN_GAMMA), 0xe220_a839_7b1d_cdaf);
/// ```
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`std::hash::Hasher`] running 64-bit FNV-1a, for deterministic
/// `HashMap`s keyed by wire bytes.
#[derive(Clone, Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// A [`std::hash::BuildHasher`] producing [`FnvHasher`]s (deterministic,
/// unseeded — unlike `RandomState`).
#[derive(Clone, Copy, Debug, Default)]
pub struct FnvBuildHasher;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hasher};

    #[test]
    fn known_vectors() {
        // Classic FNV-1a 64 test vectors (Noll's reference tables).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hasher_matches_free_function() {
        let mut h = FnvBuildHasher.build_hasher();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn mix64_is_the_splitmix64_finalizer() {
        // The reference splitmix64 stream seeded with 0.
        let mut state = 0u64;
        let mut next = || {
            state = state.wrapping_add(GOLDEN_GAMMA);
            mix64(state)
        };
        assert_eq!(next(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(next(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(mix64(0), 0);
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        assert_ne!(fnv1a(b"solve:1"), fnv1a(b"solve:2"));
    }
}
