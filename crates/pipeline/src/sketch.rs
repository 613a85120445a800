//! One `(group, target)` pair's exact sample column.

use anycast_analysis::quantile::percentile;

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
}
