//! Quantiles and dispersion.
//!
//! §6 of the paper picks its prediction metric by dispersion: "The 25th
//! percentile and median have lower coefficient of variation, indicating
//! less variation and more stability" than high percentiles. These are the
//! primitives behind that argument and behind every percentile the
//! evaluation reports (50th/75th).

/// A source of percentile estimates over a latency distribution.
///
/// Two implementations exist: [`ExactQuantiles`] (every sample kept, a
/// copy sorted per read — the behavior every analysis in this crate had
/// before the pipeline existed) and `anycast_pipeline::QuantileSketch`
/// (bounded memory, mergeable, rank error within a configured bound).
/// Consumers that only need "the p-th percentile of what this group saw"
/// — the §6 predictor above all — should take this trait so they work
/// against either backend.
pub trait QuantileBackend {
    /// Exact number of samples absorbed. Exact, not estimated: the §6
    /// "20+ measurements" eligibility filter reads it.
    fn count(&self) -> u64;

    /// The percentile `p ∈ [0, 100]`; `None` when no samples.
    fn percentile(&self, p: f64) -> Option<f64>;
}

/// The exact [`QuantileBackend`]: keeps every sample in arrival order and
/// selects from a copy on **every** [`percentile`](QuantileBackend::percentile)
/// read (the trait reads through `&self`, so nothing is cached). A reader
/// that owns its samples and scores them once should read them in place
/// with [`percentile_mut`] instead, which leaves them partitioned around
/// the read, not sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExactQuantiles {
    values: Vec<f64>,
}

impl ExactQuantiles {
    /// Creates an empty collector.
    pub fn new() -> ExactQuantiles {
        ExactQuantiles::default()
    }

    /// Absorbs one sample.
    pub fn observe(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Absorbs many samples.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        self.values.extend(values);
    }

    /// Merges another collector's samples.
    pub fn merge(&mut self, other: &ExactQuantiles) {
        self.values.extend_from_slice(&other.values);
    }
}

impl From<Vec<f64>> for ExactQuantiles {
    fn from(values: Vec<f64>) -> ExactQuantiles {
        ExactQuantiles { values }
    }
}

impl QuantileBackend for ExactQuantiles {
    fn count(&self) -> u64 {
        self.values.len() as u64
    }

    fn percentile(&self, p: f64) -> Option<f64> {
        percentile(&self.values, p)
    }
}

/// Linear-interpolation percentile of `values` at `p ∈ [0, 100]`.
/// Returns `None` for an empty slice or non-finite `p`. Input need not be
/// sorted; NaNs are rejected by returning `None` (a NaN in a latency vector
/// is a bug upstream, surfaced rather than propagated).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    percentile_mut(&mut values.to_vec(), p)
}

/// [`percentile`] without the copy, by selection instead of a sort: finds
/// the lower order statistic with `select_nth_unstable_by` (`total_cmp`
/// order) and the upper one as the minimum of what lies to its right, so a
/// read costs O(n). The result is bit-identical to [`percentile_sorted`]
/// over a sorted copy. Leaves `values` partitioned around the read, not
/// sorted. Same `None` cases as [`percentile`]; the slice is untouched
/// then.
pub fn percentile_mut(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() || !p.is_finite() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let (lo, hi, frac) = rank(values.len(), p);
    // Unstable is exact here: values that compare equal under `total_cmp`
    // are bit-identical, so which of them lands at `lo` cannot show.
    let (_, &mut at_lo, above) = values.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return Some(at_lo);
    }
    let at_hi = above.iter().copied().min_by(f64::total_cmp);
    let at_hi = at_hi.expect("hi = lo + 1 lies inside the slice");
    Some(interpolate(at_lo, at_hi, frac))
}

/// Percentile over an already-sorted slice (ascending). Callers computing
/// many percentiles over the same data should sort once and use this.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let (lo, hi, frac) = rank(sorted.len(), p);
    if lo == hi {
        sorted[lo]
    } else {
        interpolate(sorted[lo], sorted[hi], frac)
    }
}

/// Where the `p`-th percentile of `n ≥ 1` ordered values lies: the two
/// order statistics it falls between (equal when it lands on one) and the
/// fraction of the way from the lower to the upper.
fn rank(n: usize, p: f64) -> (usize, usize, f64) {
    let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

/// The one interpolation expression every percentile read shares, so the
/// sorting and the selecting reads cannot differ in a bit.
fn interpolate(at_lo: f64, at_hi: f64, frac: f64) -> f64 {
    at_lo * (1.0 - frac) + at_hi * frac
}

/// The median (50th percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Population standard deviation; `None` when empty.
pub fn std_dev(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64;
    Some(var.sqrt())
}

/// Coefficient of variation (σ/μ); `None` when empty or the mean is zero.
pub fn coefficient_of_variation(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    if m == 0.0 {
        return None;
    }
    Some(std_dev(values)? / m.abs())
}

/// A five-number-plus summary of a latency distribution, used by reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// 25th percentile — the paper's preferred prediction metric.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile — the Bing team's internal benchmark percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Mean.
    pub mean: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Some(Summary {
            count: sorted.len(),
            p25: percentile_sorted(&sorted, 25.0),
            p50: percentile_sorted(&sorted, 50.0),
            p75: percentile_sorted(&sorted, 75.0),
            p95: percentile_sorted(&sorted, 95.0),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        // Interpolation between ranks.
        assert_eq!(percentile(&v, 10.0), Some(1.4));
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
    }

    #[test]
    fn percentile_mut_sorts_once_and_matches_the_copying_read() {
        let v: [f64; 7] = [5.0, -0.0, 3.0, 0.0, 3.0, 4.0, 1.0];
        let mut by_hand = v;
        by_hand.sort_by(|a, b| a.total_cmp(b));
        let mut owned = v;
        for p in [0.0, 10.0, 25.0, 50.0, 99.0, 100.0] {
            let want = Some(percentile_sorted(&by_hand, p).to_bits());
            assert_eq!(percentile(&v, p).map(f64::to_bits), want);
            assert_eq!(percentile_mut(&mut owned, p).map(f64::to_bits), want);
        }
        // Partitioned around the last read, not sorted: the same multiset,
        // bit for bit.
        owned.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(owned.map(f64::to_bits), by_hand.map(f64::to_bits));
        // The `None` cases leave the input as it was.
        let mut bad = [2.0, f64::NAN, 1.0];
        assert_eq!(percentile_mut(&mut bad, 50.0), None);
        assert_eq!(bad[0], 2.0);
        assert_eq!(percentile_mut(&mut [], 50.0), None);
        assert_eq!(percentile_mut(&mut [1.0], f64::INFINITY), None);
    }

    #[test]
    fn selection_read_equals_the_sorted_read_on_every_small_input() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2015);
        for n in 1..=48usize {
            for round in 0..8 {
                // Few distinct values, so ties are everywhere; every third
                // round draws signed zeros among them.
                let distinct = rng.gen_range(1..=n.min(7) as u64);
                let values: Vec<f64> = (0..n)
                    .map(|_| match rng.gen_range(0..distinct + 2) {
                        0 if round % 3 == 0 => -0.0,
                        1 if round % 3 == 0 => 0.0,
                        k => k as f64 * 1.25 - 3.0,
                    })
                    .collect();
                let mut sorted = values.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let sorted_bits: Vec<u64> = sorted.iter().map(|v| v.to_bits()).collect();
                for p in [0.0, 10.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
                    let mut owned = values.clone();
                    let got = percentile_mut(&mut owned, p).map(f64::to_bits);
                    let want = Some(percentile_sorted(&sorted, p).to_bits());
                    assert_eq!(got, want, "n {n} round {round} p {p}: {values:?}");
                    owned.sort_by(|a, b| a.total_cmp(b));
                    let owned_bits: Vec<u64> = owned.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(owned_bits, sorted_bits, "n {n} p {p}: samples kept");
                }
            }
        }
        // The three `None` cases leave the input untouched.
        let shuffled = [3.0, 1.0, 2.0, 0.5];
        let mut with_nan = [3.0, f64::NAN, 2.0, 0.5];
        assert_eq!(percentile_mut(&mut with_nan, 50.0), None);
        assert_eq!(with_nan[0], 3.0);
        assert!(with_nan[1].is_nan());
        assert_eq!(with_nan[2..], shuffled[2..]);
        for bad_p in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut owned = shuffled;
            assert_eq!(percentile_mut(&mut owned, bad_p), None);
            assert_eq!(owned, shuffled);
        }
        assert_eq!(percentile_mut(&mut [], 25.0), None);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[1.0, f64::NAN], 50.0), None);
        assert_eq!(percentile(&[1.0, 2.0], f64::NAN), None);
        // Out-of-range p clamps.
        assert_eq!(percentile(&[1.0, 2.0], 150.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], -10.0), Some(1.0));
    }

    #[test]
    fn median_even_count_interpolates() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn cov_detects_noise() {
        // The §6 argument: a noisy (spiky) distribution has higher CoV.
        let stable = [50.0, 51.0, 49.0, 50.5, 49.5];
        let noisy = [50.0, 51.0, 49.0, 150.0, 48.0];
        assert!(
            coefficient_of_variation(&noisy).unwrap()
                > 3.0 * coefficient_of_variation(&stable).unwrap()
        );
    }

    #[test]
    fn cov_undefined_for_zero_mean_or_empty() {
        assert_eq!(coefficient_of_variation(&[]), None);
        assert_eq!(coefficient_of_variation(&[1.0, -1.0]), None);
    }

    #[test]
    fn summary_is_consistent() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.p25 - 25.75).abs() < 1e-9);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p75 - 75.25).abs() < 1e-9);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!(s.p25 <= s.p50 && s.p50 <= s.p75 && s.p75 <= s.p95);
    }

    #[test]
    fn summary_empty_is_none() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn exact_backend_matches_percentile() {
        let mut q = ExactQuantiles::new();
        q.extend([5.0, 1.0, 3.0]);
        q.observe(2.0);
        q.observe(4.0);
        assert_eq!(q.count(), 5);
        assert_eq!(QuantileBackend::percentile(&q, 50.0), Some(3.0));
        let mut other = ExactQuantiles::from(vec![6.0, 7.0]);
        other.merge(&q);
        assert_eq!(other.count(), 7);
        assert_eq!(
            QuantileBackend::percentile(&ExactQuantiles::new(), 50.0),
            None
        );
    }
}
