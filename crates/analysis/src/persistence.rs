//! Poor-path persistence (Figure 6).
//!
//! "Figure 6 shows the duration of poor anycast performance during April
//! 2015 … Around 60% appear for only one day over the month. Around 10% of
//! /24s show poor performance for 5 days or more. … only 5% of /24s see
//! continuous poor performance over 5 days or more" (§5). Two statistics
//! per prefix: the number of days it was poor, and the longest run of
//! *consecutive* poor days.

use std::collections::BTreeMap;

/// Persistence of poor performance for one prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Persistence {
    /// Total days the prefix was classified poor.
    pub days_bad: u32,
    /// Longest run of consecutive poor days.
    pub max_consecutive: u32,
}

/// Computes persistence per key from `(key, day)` poor observations, in
/// key order. Duplicate `(key, day)` pairs are tolerated (a prefix is poor
/// on a day or not, however many measurements said so).
pub fn persistence_by_key<K: Copy + Ord>(
    poor_days: impl IntoIterator<Item = (K, u32)>,
) -> BTreeMap<K, Persistence> {
    let mut days: BTreeMap<K, Vec<u32>> = BTreeMap::new();
    for (k, d) in poor_days {
        days.entry(k).or_default().push(d);
    }
    days.into_iter()
        .map(|(k, mut ds)| {
            ds.sort_unstable();
            ds.dedup();
            let days_bad = ds.len() as u32;
            let mut max_run = 1u32;
            let mut run = 1u32;
            for w in ds.windows(2) {
                if w[1] == w[0] + 1 {
                    run += 1;
                    max_run = max_run.max(run);
                } else {
                    run = 1;
                }
            }
            (
                k,
                Persistence {
                    days_bad,
                    max_consecutive: max_run,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_day() {
        let p = persistence_by_key([(1u32, 5u32)]);
        assert_eq!(
            p[&1],
            Persistence {
                days_bad: 1,
                max_consecutive: 1
            }
        );
    }

    #[test]
    fn consecutive_run_detected() {
        let p = persistence_by_key([(1u32, 3u32), (1, 4), (1, 5), (1, 9)]);
        assert_eq!(
            p[&1],
            Persistence {
                days_bad: 4,
                max_consecutive: 3
            }
        );
    }

    #[test]
    fn non_consecutive_days() {
        let p = persistence_by_key([(1u32, 0u32), (1, 2), (1, 4), (1, 6)]);
        assert_eq!(
            p[&1],
            Persistence {
                days_bad: 4,
                max_consecutive: 1
            }
        );
    }

    #[test]
    fn duplicates_ignored() {
        let p = persistence_by_key([(1u32, 3u32), (1, 3), (1, 3), (1, 4)]);
        assert_eq!(
            p[&1],
            Persistence {
                days_bad: 2,
                max_consecutive: 2
            }
        );
    }

    #[test]
    fn unordered_input() {
        let p = persistence_by_key([(1u32, 9u32), (1, 7), (1, 8), (1, 1)]);
        assert_eq!(
            p[&1],
            Persistence {
                days_bad: 4,
                max_consecutive: 3
            }
        );
    }

    #[test]
    fn multiple_keys_independent() {
        let p = persistence_by_key([(1u32, 0u32), (2, 0), (2, 1), (2, 2)]);
        assert_eq!(p[&1].days_bad, 1);
        assert_eq!(p[&2].max_consecutive, 3);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn empty_input() {
        let p: BTreeMap<u32, Persistence> = persistence_by_key(std::iter::empty::<(u32, u32)>());
        assert!(p.is_empty());
    }
}
