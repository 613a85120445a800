//! Order statistics the benchmark reports: nearest-rank percentiles and
//! the median over equal segments of a run.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 * n)`, clamped to `1..=n`. `None` when empty.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n.max(1)) - 1).copied()
}

/// Nearest-rank percentile of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// Nearest-rank percentile of integer samples (latencies in ns), sorting
/// in place.
pub fn percentile_u32(values: &mut [u32], p: f64) -> Option<u32> {
    values.sort_unstable();
    percentile_sorted(values, p)
}

/// The nearest-rank median of a run's equal segments (days, cycles or
/// time slices); `None` when there are none. Empty segments never reach
/// here: the caller drops a slice that saw no work before asking.
pub fn median_of_segments(segments: &[f64]) -> Option<f64> {
    percentile(segments, 50.0)
}

/// Median, or 0 for an empty sample (per-layer metrics of a layer the
/// workload never entered read 0).
pub fn median_or_zero(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// Arithmetic mean, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        // Wikipedia's nearest-rank example: 15, 20, 35, 40, 50.
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&v, 5.0), Some(15.0));
        assert_eq!(percentile_sorted(&v, 30.0), Some(20.0));
        assert_eq!(percentile_sorted(&v, 40.0), Some(20.0));
        assert_eq!(percentile_sorted(&v, 50.0), Some(35.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(15.0));
        assert_eq!(percentile_sorted::<f64>(&[], 50.0), None);
    }

    #[test]
    fn percentile_sorts_first_and_even_counts_take_the_lower_middle() {
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[9.0], 99.0), Some(9.0));
        let mut ns = vec![400u32, 100, 300, 200, 500];
        assert_eq!(percentile_u32(&mut ns, 50.0), Some(300));
        assert_eq!(percentile_u32(&mut ns, 99.0), Some(500));
        assert_eq!(percentile_u32(&mut [], 50.0), None);
    }

    #[test]
    fn median_of_segments_ignores_one_slow_segment() {
        let days = [1.0, 1.1, 0.9, 1.0, 9.0, 1.05, 0.95, 1.0, 1.0];
        assert_eq!(median_of_segments(&days), Some(1.0));
        assert_eq!(median_of_segments(&[]), None);
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
