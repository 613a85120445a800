//! The pipeline's per-pair sample column and its hashing.
//!
//! [`QuantileSketch`] holds every latency a `(group, target)` pair was
//! fed and reads the §6 per-group 25th-percentile prediction metric
//! exactly. Merging concatenates, so a column assembled from shards holds
//! the same values as one fed the whole stream; the percentile read does
//! not depend on their order. [`mix64`] and [`FastHasher`] are the
//! deterministic hashes shard routing and the hot maps run on.

use anycast_analysis::quantile::percentile;
use anycast_netsim::stream::splitmix64;

/// SplitMix64 of one key: a cheap, high-quality 64-bit mixer used for
/// deterministic hashing (shard routing), stable across platforms and
/// releases.
pub fn mix64(x: u64) -> u64 {
    splitmix64(x.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// A cheap multiply-rotate hasher (FxHash construction) for the
/// pipeline's per-record hot maps. Runs once per log record, where
/// SipHash's per-lookup cost is measurable at day scale. Deterministic
/// and DoS-hardening-free by design — pipeline keys are simulator ids,
/// not attacker-controlled input.
#[derive(Debug, Default, Clone)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FastHasher {
    /// The state with its high bits folded down. After the multiply the
    /// low bits of the state depend only on the low bits of the input,
    /// and `hashbrown` picks the bucket from the hash's low bits: returned
    /// raw, keys of the shape `x << k | small` pile into a few buckets.
    /// The top bits are the ones every input bit reaches, so the high
    /// half goes onto the low half and the top twelve onto the bottom
    /// twelve; the top seven, `hashbrown`'s tag, stay as they are.
    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0;
        h ^ (h >> 32) ^ (h >> 52)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

/// Every sample of one `(group, target)` pair, in arrival order: an exact
/// column, read by the same linear-interpolation percentile the §6
/// trainers score with. The name and the methods are the ones the
/// benchmark's ingest probes call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantileSketch(Vec<f64>);

impl QuantileSketch {
    /// An empty column. `eps` is ignored — the column is exact — and
    /// stays only because the benchmark's adapter passes one.
    pub fn new(_eps: f64) -> QuantileSketch {
        QuantileSketch::default()
    }

    /// Number of observations fed in.
    pub fn count(&self) -> u64 {
        self.0.len() as u64
    }

    /// Number of stored values: every observation.
    pub fn tuples_len(&self) -> usize {
        self.0.len()
    }

    /// Absorbs one observation. NaNs are rejected (a NaN latency is an
    /// upstream bug; dropping it silently would corrupt counts).
    ///
    /// # Panics
    /// Panics on NaN input.
    pub fn observe(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN fed to QuantileSketch");
        self.0.push(v);
    }

    /// Appends `other`'s observations to `self`'s.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.0.extend_from_slice(&other.0);
    }

    /// The `p`-th percentile, `p ∈ [0, 100]`, of every observation
    /// ([`percentile`]); `None` when empty or `p` is not finite.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        percentile(&self.0, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_streams_are_near_exact() {
        let mut s = QuantileSketch::new(0.1);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.observe(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(25.0), Some(2.0));
        assert_eq!(s.quantile(100.0), Some(5.0));
    }

    #[test]
    fn empty_sketch_answers_none() {
        let s = QuantileSketch::new(0.05);
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(50.0), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        QuantileSketch::new(0.1).observe(f64::NAN);
    }

    #[test]
    fn fast_hasher_spreads_keys_whose_low_bits_are_constant() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<FastHasher>::default();
        for shift in [20u32, 40] {
            let buckets: std::collections::BTreeSet<u64> = (0..4096u64)
                .map(|i| build.hash_one(i << shift) & 0xfff)
                .collect();
            assert!(
                buckets.len() >= 2_000,
                "keys i << {shift} reach {} of 4096 buckets",
                buckets.len()
            );
        }
    }

    /// `Prefix` stores its length plus one; the pipeline's maps must still
    /// hash it as the `(net, len)` it stood for, or their order moves.
    #[test]
    fn fast_hasher_sees_a_prefix_as_its_net_and_length() {
        use anycast_netsim::Prefix;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<FastHasher>::default();
        for raw in [0u32, 0x0102_0304, u32::MAX] {
            for len in 0..=32u8 {
                let p = Prefix::from_raw(raw, len);
                assert_eq!(build.hash_one(p), build.hash_one((p.raw(), len)), "{p}");
            }
        }
    }

    #[test]
    fn mix64_is_stable() {
        // Pin the mixer: shard routing depends on these exact bits.
        assert_eq!(mix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(mix64(1), 0x910a2dec89025cc1);
    }
}
