//! Daily poor-path prevalence (Figure 5).
//!
//! "At the end of each day, we analyzed all collected client measurements to
//! find prefixes with room for improvement over anycast performance. For
//! each client /24, we calculate the median latency between the prefix and
//! each measured unicast front-end and anycast" (§5). A prefix is counted at
//! threshold *t* if its best unicast front-end beats anycast by more than
//! *t* milliseconds.

use std::hash::Hash;

/// The figure's improvement thresholds in ms: any (>0), >10, >25, >50, >100.
pub const THRESHOLDS_MS: [f64; 5] = [0.0, 10.0, 25.0, 50.0, 100.0];

/// One prefix's daily comparison: median anycast latency vs the best
/// unicast front-end's median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixDayPerf<K> {
    /// Prefix identity.
    pub key: K,
    /// Median latency over anycast, ms.
    pub anycast_ms: f64,
    /// Median latency of the best measured unicast front-end, ms.
    pub best_unicast_ms: f64,
}

impl<K> PrefixDayPerf<K> {
    /// How much the best unicast front-end improves on anycast (positive =
    /// anycast is suboptimal).
    pub fn improvement_ms(&self) -> f64 {
        self.anycast_ms - self.best_unicast_ms
    }
}

/// Prevalence of poor paths on one day: of `total` prefixes, how many had
/// improvement exceeding each threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DailyPrevalence {
    /// Number of prefixes with enough measurements that day.
    pub total: usize,
    /// `counts[i]` = prefixes with improvement > `THRESHOLDS_MS[i]`.
    pub counts: [usize; 5],
}

impl DailyPrevalence {
    /// Fraction of prefixes exceeding threshold `i` (0.0 if no prefixes).
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }
}

/// Computes one day's prevalence from per-prefix comparisons.
pub fn daily_prevalence<K>(perf: &[PrefixDayPerf<K>]) -> DailyPrevalence {
    let mut counts = [0usize; 5];
    for p in perf {
        let imp = p.improvement_ms();
        for (i, &t) in THRESHOLDS_MS.iter().enumerate() {
            if imp > t {
                counts[i] += 1;
            }
        }
    }
    DailyPrevalence {
        total: perf.len(),
        counts,
    }
}

/// The keys whose improvement exceeded `threshold_ms` (feeds the Figure 6
/// persistence analysis: which prefixes were poor on which days).
pub fn poor_keys<K: Copy + Eq + Hash>(perf: &[PrefixDayPerf<K>], threshold_ms: f64) -> Vec<K> {
    perf.iter()
        .filter(|p| p.improvement_ms() > threshold_ms)
        .map(|p| p.key)
        .collect()
}

/// Averages prevalence fractions across days — the paper's "on average, we
/// find that 19% of prefixes see some performance benefit" summary.
pub fn mean_fraction(days: &[DailyPrevalence], threshold_idx: usize) -> f64 {
    if days.is_empty() {
        return 0.0;
    }
    days.iter().map(|d| d.fraction(threshold_idx)).sum::<f64>() / days.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf(key: u32, anycast: f64, best: f64) -> PrefixDayPerf<u32> {
        PrefixDayPerf {
            key,
            anycast_ms: anycast,
            best_unicast_ms: best,
        }
    }

    #[test]
    fn improvement_sign_convention() {
        assert_eq!(perf(0, 100.0, 70.0).improvement_ms(), 30.0);
        assert_eq!(perf(0, 50.0, 60.0).improvement_ms(), -10.0);
    }

    #[test]
    fn prevalence_counts_thresholds() {
        let day = vec![
            perf(0, 100.0, 100.0), // 0 improvement: counted nowhere
            perf(1, 100.0, 95.0),  // 5ms: >0 only
            perf(2, 100.0, 85.0),  // 15ms: >0, >10
            perf(3, 100.0, 60.0),  // 40ms: >0, >10, >25
            perf(4, 200.0, 40.0),  // 160ms: all
        ];
        let p = daily_prevalence(&day);
        assert_eq!(p.total, 5);
        assert_eq!(p.counts, [4, 3, 2, 1, 1]);
        assert!((p.fraction(0) - 0.8).abs() < 1e-12);
        assert!((p.fraction(4) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn counts_are_nested() {
        // Higher thresholds can never exceed lower ones.
        let day: Vec<PrefixDayPerf<u32>> = (0..100)
            .map(|i| perf(i, 100.0 + f64::from(i), 80.0))
            .collect();
        let p = daily_prevalence(&day);
        for w in p.counts.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn empty_day() {
        let p = daily_prevalence::<u32>(&[]);
        assert_eq!(p.total, 0);
        assert_eq!(p.fraction(0), 0.0);
    }

    #[test]
    fn poor_keys_filters() {
        let day = vec![perf(1, 100.0, 95.0), perf(2, 100.0, 60.0)];
        assert_eq!(poor_keys(&day, 0.0), vec![1, 2]);
        assert_eq!(poor_keys(&day, 10.0), vec![2]);
        assert!(poor_keys(&day, 100.0).is_empty());
    }

    #[test]
    fn mean_fraction_averages() {
        let a = daily_prevalence(&[perf(0u32, 100.0, 50.0)]); // 100% > 0
        let b = daily_prevalence(&[perf(0u32, 100.0, 100.0)]); // 0% > 0
        assert!((mean_fraction(&[a, b], 0) - 0.5).abs() < 1e-12);
        assert_eq!(mean_fraction(&[], 0), 0.0);
    }
}
