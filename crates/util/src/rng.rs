//! Seeded random-number generation helpers.
//!
//! Every randomized component in the workspace (instance generators, FRT
//! embeddings, adversary distributions) takes an explicit seed and builds its
//! generator through [`seeded`], so all experiments are reproducible
//! bit-for-bit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::hash::{mix64, GOLDEN_GAMMA};

/// Returns a [`StdRng`] deterministically derived from `seed`.
///
/// # Examples
///
/// ```
/// use rand::Rng;
///
/// let mut a = bi_util::rng::seeded(7);
/// let mut b = bi_util::rng::seeded(7);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
#[must_use]
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a fresh seed for a named sub-component from a master seed.
///
/// This keeps independent components (e.g. "graph generation" vs "prior
/// sampling") decorrelated even when driven from one master seed, without
/// the caller having to invent seed arithmetic.
///
/// # Examples
///
/// ```
/// let s1 = bi_util::rng::derive_seed(42, "graph");
/// let s2 = bi_util::rng::derive_seed(42, "prior");
/// assert_ne!(s1, s2);
/// assert_eq!(s1, bi_util::rng::derive_seed(42, "graph"));
/// ```
#[must_use]
pub fn derive_seed(master: u64, label: &str) -> u64 {
    // An FNV-1a-style pass over the label (its multiplier is not the FNV
    // prime, and stays as it is: every seeded generator depends on these
    // values), mixed with the master seed via the splitmix64 finalizer.
    // Not cryptographic; just stable and well-spread.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ master;
    for byte in label.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    mix64(h.wrapping_add(GOLDEN_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_is_deterministic() {
        let xs: Vec<u32> = (0..5).map(|_| seeded(1).random::<u32>()).collect();
        assert!(xs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(seeded(1).random::<u64>(), seeded(2).random::<u64>());
    }

    #[test]
    fn derive_seed_separates_labels_and_masters() {
        assert_ne!(derive_seed(0, "a"), derive_seed(0, "b"));
        assert_ne!(derive_seed(0, "a"), derive_seed(1, "a"));
        assert_eq!(derive_seed(9, "frt"), derive_seed(9, "frt"));
    }

    #[test]
    fn derive_seed_values_are_pinned() {
        // Every seeded generator (and the benchmark's games) hangs off
        // these values; a change to the mixing must not move them.
        assert_eq!(derive_seed(42, "graph"), 0x2d77_5f65_f9b8_12ee);
    }
}
