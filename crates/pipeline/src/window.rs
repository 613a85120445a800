//! A training window's sample columns.
//!
//! The §6 predictor "updates its mapping every prediction interval, set to
//! one day in our experiment": a window of whole days is read as one
//! record stream. [`DaySketches`] is that stream's per-`(group,
//! front-end)` columns as sharded ingestion leaves them — one share per
//! worker, key sets disjoint, each column fed its pair's records in stream
//! order.
//!
//! The group key is generic: the benchmark's probes key it by `Prefix`.

use anycast_beacon::Target;
use anycast_netsim::stream::FastMap;

use crate::QuantileSketch;

/// One record stream's per-`(group, target)` columns, as
/// [`sketch_day`](crate::sketch_day) leaves them: one share per
/// worker, each pair in exactly one. Nothing read from it depends on how
/// many shares it has.
#[derive(Debug, Clone)]
pub struct DaySketches<K> {
    pub(crate) shares: Vec<FastMap<(K, Target), QuantileSketch>>,
}

impl<K> DaySketches<K> {
    /// Number of `(group, target)` pairs.
    pub fn len(&self) -> usize {
        self.shares.iter().map(FastMap::len).sum()
    }

    /// Whether no record landed in the stream.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every pair with its column, share after share, in no particular
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&(K, Target), &QuantileSketch)> {
        self.shares.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sketch_day, ShardConfig};
    use anycast_netsim::stream::mix64;
    use anycast_netsim::SiteId;
    use std::collections::BTreeMap;

    /// Every worker count the invariance contract is pinned at.
    const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 5, 8];

    /// Every pair of `day` with its column.
    fn columns<K: Ord + Clone>(day: &DaySketches<K>) -> BTreeMap<(K, Target), QuantileSketch> {
        let out: BTreeMap<_, _> = day.iter().map(|(p, s)| (p.clone(), s.clone())).collect();
        assert_eq!(out.len(), day.len(), "a pair lies in exactly one share");
        out
    }

    /// One column per pair, fed the pair's values in stream order: what a
    /// day's columns are defined to equal.
    fn direct(records: &[(u32, Target, f64)]) -> BTreeMap<(u32, Target), QuantileSketch> {
        let mut out: BTreeMap<(u32, Target), QuantileSketch> = BTreeMap::new();
        for &(k, t, v) in records {
            out.entry((k, t)).or_default().observe(v);
        }
        out
    }

    fn sharded(records: &[(u32, Target, f64)], workers: usize) -> DaySketches<u32> {
        sketch_day(
            records.iter().copied(),
            0.01,
            ShardConfig { workers },
            |k: &u32| mix64(u64::from(*k)),
        )
    }

    /// Thirteen keys whose pairs hold a few dozen values each, and (from
    /// `heavy` on) one key in every four records.
    fn obs(i: u64, heavy: u64) -> (u32, Target, f64) {
        let key = if i >= heavy && i.is_multiple_of(4) {
            100
        } else {
            (i % 13) as u32
        };
        let target = if i.is_multiple_of(4) {
            Target::Anycast
        } else {
            Target::Unicast(SiteId((i % 3) as u16))
        };
        (key, target, (mix64(i) % 200) as f64)
    }

    #[test]
    fn sharded_day_equals_direct_day() {
        let records: Vec<(u32, Target, f64)> = (0..5_000).map(|i| obs(i, 1_000)).collect();
        let want = direct(&records);
        for workers in WORKER_COUNTS {
            assert_eq!(
                columns(&sharded(&records, workers)),
                want,
                "workers {workers}"
            );
        }
    }

    #[test]
    fn a_window_is_one_stream() {
        // Day 0 is empty, day 1 light, day 2 brings a heavy key and new
        // pairs, day 3 repeats some: the window's columns are the direct
        // columns of the days' records concatenated.
        let days: [Vec<(u32, Target, f64)>; 4] = [
            Vec::new(),
            (0..700).map(|i| obs(i, u64::MAX)).collect(),
            (700..2_600).map(|i| obs(i * 7, 0)).collect(),
            (0..300).map(|i| obs(i * 2, u64::MAX)).collect(),
        ];
        let want = direct(&days.concat());
        for workers in WORKER_COUNTS {
            let mut merged: BTreeMap<(u32, Target), QuantileSketch> = BTreeMap::new();
            for day in &days {
                for (pair, column) in columns(&sharded(day, workers)) {
                    merged.entry(pair).or_default().merge(&column);
                }
            }
            assert_eq!(merged, want, "workers {workers}");
            assert_eq!(columns(&sharded(&days.concat(), workers)), want);
        }
    }

    #[test]
    fn exact_counts_survive_sharding() {
        let records: Vec<(u32, Target, f64)> = (0..999).map(|i| obs(i, 500)).collect();
        let mut expected: BTreeMap<(u32, Target), u64> = BTreeMap::new();
        for &(k, t, _) in &records {
            *expected.entry((k, t)).or_insert(0) += 1;
        }
        let day = sharded(&records, 3);
        let counts: BTreeMap<(u32, Target), u64> =
            day.iter().map(|(&pair, s)| (pair, s.count())).collect();
        assert_eq!(counts, expected);
        assert_eq!(counts.values().sum::<u64>(), 999);
    }
}
