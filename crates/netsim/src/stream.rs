//! Splittable RNG stream derivation.
//!
//! The simulator's determinism story has two tiers. Pure schedule models
//! ([`crate::outage::OutageModel`], [`crate::worldgen::dynamics`]) hash
//! `(seed, entity, day)` straight to a decision and need no generator at
//! all. Stochastic per-event noise (RTT jitter, beacon scheduling, browser
//! timing) does need a generator — and if every event in a campaign pulls
//! from one shared sequential RNG, the draw order becomes part of the
//! output and nothing can be computed out of order, let alone on another
//! thread.
//!
//! This module closes that gap: [`derive()`] folds an arbitrary key path
//! (e.g. `(day, client, beacon)`) through the same SplitMix64-style mixer
//! the schedule models use, and [`stream_rng`] seeds a [`SmallRng`] from
//! the result. Two properties make the campaign engine parallelizable:
//!
//! * **Independence** — streams for different key paths are statistically
//!   uncorrelated (SplitMix64's finalizer decorrelates adjacent keys), so
//!   per-client streams can be consumed in any order, on any thread.
//! * **Stability** — a stream's identity is exactly `(seed, key path)`.
//!   Adding workers, reordering clients, or skipping events never shifts
//!   another stream's draws.
//!
//! A stream may make a *variable* number of draws (rejection sampling is
//! fine) as long as the draw count depends only on that stream's own
//! output — never on draws from a different stream.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64-style mixing of (seed, key, salt) into a well-distributed
/// u64. Identical to the mixer used by the schedule models so the whole
/// repo shares one derivation idiom.
pub fn mix(seed: u64, key: u64, salt: u64) -> u64 {
    splitmix64(
        seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    )
}

/// The SplitMix64 finalizer: every hash in the workspace above `geo`
/// pre-mixes its own inputs and ends here. Stable across platforms and
/// releases by construction — never replace it with `DefaultHasher`, whose
/// output is allowed to change between Rust versions.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to the unit interval with 53 bits of precision.
pub fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Folds a key path into a single stream identity. The position of each
/// key is salted in, so `derive(s, &[a, b]) != derive(s, &[b, a])` and a
/// path is never a prefix-collision of a longer one with zero keys.
pub fn derive(seed: u64, keys: &[u64]) -> u64 {
    let mut h = seed ^ 0x5354_5245_414d_7321; // "STREAMs!"
    for (i, &k) in keys.iter().enumerate() {
        h = mix(h, k, (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    h
}

/// A fresh generator for the stream identified by `(seed, keys)`. Cheap
/// enough to build per event: seeding a [`SmallRng`] is a few multiplies.
pub fn stream_rng(seed: u64, keys: &[u64]) -> SmallRng {
    SmallRng::seed_from_u64(derive(seed, keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive(7, &[1, 2, 3]), derive(7, &[1, 2, 3]));
        let mut a = stream_rng(7, &[0, 5]);
        let mut b = stream_rng(7, &[0, 5]);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn key_order_and_depth_matter() {
        assert_ne!(derive(7, &[1, 2]), derive(7, &[2, 1]));
        assert_ne!(derive(7, &[1]), derive(7, &[1, 0]));
        assert_ne!(derive(7, &[]), derive(7, &[0]));
        assert_ne!(derive(7, &[1, 2]), derive(8, &[1, 2]));
    }

    #[test]
    fn adjacent_streams_are_decorrelated() {
        // Crude independence check: first draws of adjacent client streams
        // should look uniform, not clustered.
        let draws: Vec<f64> = (0..1000).map(|c| to_unit(derive(42, &[3, c]))).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        let below = draws.iter().filter(|&&x| x < 0.5).count();
        assert!((400..600).contains(&below), "{below} below median");
    }
}
