//! Log-linear histograms with a bit-exact commutative/associative merge.
//!
//! Values (latencies in milliseconds) land in buckets whose bounds grow
//! by powers of two, each octave split into four linear sub-buckets —
//! ~19% relative bucket width over `[1/16 ms, 2^21 ms)`, plus underflow
//! and overflow buckets. The bucket index is computed from the IEEE-754
//! bit pattern (exponent + top two mantissa bits), so placement is a pure
//! function of the value: no float comparisons whose result could vary.
//!
//! **Merge contract.** A histogram is a vector of `u64` bucket counts
//! plus an integer-microsecond sum; merging adds element-wise. Integer
//! addition is commutative and associative, so — exactly like the
//! pipeline crate's quantile sketches — merged histograms are
//! bit-identical regardless of merge order or how observations were
//! partitioned across workers. The `hist_merge_*` proptests pin this.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Lowest bucketed octave: values below `2^MIN_EXP` ms underflow.
const MIN_EXP: i32 = -4;
/// Highest bucketed octave: values at or above `2^(MAX_EXP+1)` ms
/// overflow.
const MAX_EXP: i32 = 20;
/// Linear sub-buckets per octave.
const SUBS: usize = 4;
/// Total buckets: underflow + octaves + overflow.
const BUCKETS: usize = 2 + (MAX_EXP - MIN_EXP + 1) as usize * SUBS;

/// Bucket index for a value. Pure function of the value's bit pattern.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < f64::powi(2.0, MIN_EXP) {
        // NaN, negative, zero, and tiny values all underflow.
        return 0;
    }
    if v >= f64::powi(2.0, MAX_EXP + 1) {
        return BUCKETS - 1;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let sub = ((bits >> 50) & 0b11) as usize;
    1 + (exp - MIN_EXP) as usize * SUBS + sub
}

/// Upper bound (exclusive) of bucket `i`, in ms; `None` for overflow.
fn bucket_upper(i: usize) -> Option<f64> {
    if i == 0 {
        return Some(f64::powi(2.0, MIN_EXP));
    }
    if i >= BUCKETS - 1 {
        return None;
    }
    let oct = (i - 1) / SUBS;
    let sub = (i - 1) % SUBS;
    let base = f64::powi(2.0, MIN_EXP + oct as i32);
    Some(base * (1.0 + (sub as f64 + 1.0) / SUBS as f64))
}

/// A live histogram: fixed-size atomic bucket counts plus an integer
/// sum. `observe` is two relaxed atomic adds — safe on any hot path.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    /// Sum of observations, rounded to integer microseconds *per
    /// observation* so accumulation order can never change the total.
    sum_micro: AtomicU64,
    enabled: Arc<AtomicBool>,
}

impl Histogram {
    pub(crate) fn new(enabled: Arc<AtomicBool>) -> Histogram {
        Histogram {
            buckets: Box::new([0u64; BUCKETS].map(AtomicU64::new)),
            sum_micro: AtomicU64::new(0),
            enabled,
        }
    }

    /// Records one value (ms).
    #[inline]
    pub fn observe(&self, v_ms: f64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.buckets[bucket_index(v_ms)].fetch_add(1, Ordering::Relaxed);
        let micro = if v_ms.is_finite() && v_ms > 0.0 {
            (v_ms * 1000.0).round() as u64
        } else {
            0
        };
        self.sum_micro.fetch_add(micro, Ordering::Relaxed);
    }

    /// Adds a locally built snapshot: one relaxed atomic add per
    /// non-empty bucket, plus the sum. A hot loop that observes into its
    /// own [`HistogramSnapshot`] and merges it once per block leaves every
    /// bucket and the sum exactly where observing each value here would.
    pub fn merge(&self, local: &HistogramSnapshot) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        for (bucket, &n) in self.buckets.iter().zip(&local.buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum_micro.fetch_add(local.sum_micro, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum_micro: self.sum_micro.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data histogram state: mergeable, diffable, exportable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Dense bucket counts (`BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Sum of observations in integer microseconds.
    pub sum_micro: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            sum_micro: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Records one value into the snapshot (the non-atomic path: a hot
    /// loop's local tally, which [`Histogram::merge`] publishes).
    pub fn observe(&mut self, v_ms: f64) {
        self.buckets[bucket_index(v_ms)] += 1;
        if v_ms.is_finite() && v_ms > 0.0 {
            self.sum_micro += (v_ms * 1000.0).round() as u64;
        }
    }

    /// Element-wise sum: the commutative/associative merge.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum_micro += other.sum_micro;
    }

    /// Element-wise saturating difference (for capture windows).
    pub fn diff(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&baseline.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum_micro: self.sum_micro.saturating_sub(baseline.sum_micro),
        }
    }

    /// Empties the snapshot, keeping its bucket vector.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.sum_micro = 0;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of observations in ms.
    pub fn sum_ms(&self) -> f64 {
        self.sum_micro as f64 / 1000.0
    }

    /// `(upper_bound_ms, count)` for each non-empty bucket, in bound
    /// order; the overflow bucket reports `f64::INFINITY`.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper(i).unwrap_or(f64::INFINITY), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> Histogram {
        Histogram::new(Arc::new(AtomicBool::new(true)))
    }

    #[test]
    fn values_land_between_their_bounds() {
        for v in [0.07, 0.51, 1.0, 1.49, 12.0, 99.9, 1024.0, 123_456.0] {
            let i = bucket_index(v);
            let upper = bucket_upper(i).unwrap();
            assert!(v < upper, "{v} >= upper {upper}");
            if i > 1 {
                let lower = bucket_upper(i - 1).unwrap();
                assert!(v >= lower, "{v} < lower {lower}");
            }
        }
    }

    #[test]
    fn bounds_are_monotone() {
        let mut prev = 0.0;
        for i in 0..BUCKETS - 1 {
            let u = bucket_upper(i).unwrap();
            assert!(u > prev, "bucket {i} bound {u} <= {prev}");
            prev = u;
        }
        assert_eq!(bucket_upper(BUCKETS - 1), None);
    }

    #[test]
    fn degenerate_values_underflow_not_panic() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
        let h = hist();
        h.observe(f64::NAN);
        h.observe(-1.0);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum_micro, 0);
    }

    #[test]
    fn atomic_and_plain_paths_agree() {
        let h = hist();
        let mut expect = HistogramSnapshot::default();
        for i in 0..1000 {
            let v = (i as f64) * 0.37;
            h.observe(v);
            expect.observe(v);
        }
        assert_eq!(h.snapshot(), expect);
    }

    #[test]
    fn merge_is_elementwise_addition() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        a.observe(1.0);
        a.observe(2.0);
        b.observe(2.0);
        b.observe(500.0);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.count(), 4);
        let mut all = HistogramSnapshot::default();
        for v in [1.0, 2.0, 2.0, 500.0] {
            all.observe(v);
        }
        assert_eq!(ab, all);
    }

    #[test]
    fn diff_reverses_merge() {
        let mut base = HistogramSnapshot::default();
        base.observe(3.0);
        let mut grown = base.clone();
        grown.observe(7.0);
        grown.observe(90.0);
        let d = grown.diff(&base);
        assert_eq!(d.count(), 2);
        let mut expect = HistogramSnapshot::default();
        expect.observe(7.0);
        expect.observe(90.0);
        assert_eq!(d, expect);
    }
}
