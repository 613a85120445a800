//! Day-partitioned incremental aggregation windows.
//!
//! The §6 predictor "updates its mapping every prediction interval, set to
//! one day in our experiment": training reads a window of whole days, and
//! a day that has slid out of every window will never be read again. The
//! [`DayWindow`] mirrors that lifecycle — per-day maps of per-
//! `(group, front-end)` latency sketches, built incrementally as records
//! arrive, pooled across a training window on demand, and retired once the
//! window has moved past them. It is the *retaining* form: a trainer that
//! builds its days, pools them once and drops them (`train_sketched`)
//! moves the [`DaySketches`] maps instead and never holds a second copy.
//!
//! The group key is generic (`K: Ord`): the pipeline is used with
//! `Prefix24` (ECS granularity), `LdnsId`, and `anycast_core`'s own
//! `GroupKey`.

use std::collections::BTreeMap;

use anycast_beacon::Target;
use anycast_netsim::Day;

use crate::shard::Aggregate;
use crate::sketch::QuantileSketch;

/// A per-`(group, target)` map of latency sketches for one day.
pub type DaySketches<K> = BTreeMap<(K, Target), QuantileSketch>;

/// Day-partitioned per-`(group, target)` latency sketches.
///
/// Each entry holds the 25th-percentile estimate (any percentile, in
/// fact — the sketch answers all of them within its rank-error bound)
/// plus the **exact** sample count the "20+ measurements" filter needs.
#[derive(Debug, Clone, PartialEq)]
pub struct DayWindow<K: Ord + Clone> {
    eps: f64,
    days: BTreeMap<Day, DaySketches<K>>,
}

impl<K: Ord + Clone> DayWindow<K> {
    /// Creates an empty window whose sketches carry rank-error bound
    /// `eps` (see [`QuantileSketch::new`] for the valid range).
    pub fn new(eps: f64) -> DayWindow<K> {
        // Validate eagerly so a bad bound fails at construction, not on
        // the first observation.
        let _ = QuantileSketch::new(eps);
        DayWindow {
            eps,
            days: BTreeMap::new(),
        }
    }

    /// The rank-error bound every sketch in this window is built with.
    pub fn error_bound(&self) -> f64 {
        self.eps
    }

    /// Absorbs one latency observation.
    pub fn observe(&mut self, day: Day, key: K, target: Target, rtt_ms: f64) {
        self.days
            .entry(day)
            .or_default()
            .entry((key, target))
            .or_insert_with(|| QuantileSketch::new(self.eps))
            .observe(rtt_ms);
    }

    /// Folds a sharded-ingestion partial result (one worker's
    /// [`DaySketches`]) into a day. With key-ownership routing the partial
    /// key sets are disjoint and this is a plain union.
    pub fn absorb_day(&mut self, day: Day, part: DaySketches<K>) {
        let slot = self.days.entry(day).or_default();
        for (k, sketch) in part {
            match slot.entry(k) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(sketch);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().merge(&sketch);
                }
            }
        }
    }

    /// One day's sketches, if any records landed on that day.
    pub fn day(&self, day: Day) -> Option<&DaySketches<K>> {
        self.days.get(&day)
    }

    /// The days currently held, ascending.
    pub fn days(&self) -> Vec<Day> {
        self.days.keys().copied().collect()
    }

    /// Pools the given days into per-`(group, target)` merged sketches —
    /// the multi-day training input of `train_from_stats`. Days with no
    /// data contribute nothing.
    ///
    /// The window keeps its days, so the pool is a **copy**: every sketch
    /// of the first day a key appears on is cloned, later days merge into
    /// the clone. A caller that owns its day maps and reads them once
    /// does not need the copy — `anycast_core`'s `train_sketched` folds
    /// each day's [`DaySketches`] into a running map by value (first day
    /// moved, later days merged with the same `merge` calls, in the same
    /// order) and is pinned bit-identical to training from this pool.
    pub fn pooled(&self, days: &[Day]) -> DaySketches<K> {
        let mut out: DaySketches<K> = BTreeMap::new();
        for day in days {
            let Some(sketches) = self.days.get(day) else {
                continue;
            };
            for (k, sketch) in sketches {
                match out.entry(k.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(sketch.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        e.get_mut().merge(sketch);
                    }
                }
            }
        }
        out
    }

    /// Number of days held.
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// Whether the window holds no days.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }
}

/// The [`Aggregate`] that builds one worker's share of a day's
/// [`DaySketches`] under sharded ingestion. Records are
/// `(group, target, rtt_ms)` triples; route them by the group key.
///
/// The per-record index is a `HashMap` — the hot path runs once per log
/// record, and a B-tree walk there is measurably slower. Only
/// [`finish`](Aggregate::finish) pays for ordering, so iteration-order
/// nondeterminism in the intermediate map never reaches the output.
#[derive(Debug, Clone)]
pub struct GroupAggregator<K: Ord + std::hash::Hash + Clone> {
    eps: f64,
    sketches: crate::sketch::FastMap<(K, Target), QuantileSketch>,
}

impl<K: Ord + std::hash::Hash + Clone> GroupAggregator<K> {
    /// Creates an empty aggregate with rank-error bound `eps`.
    pub fn new(eps: f64) -> GroupAggregator<K> {
        let _ = QuantileSketch::new(eps);
        GroupAggregator {
            eps,
            sketches: crate::sketch::FastMap::default(),
        }
    }
}

impl<K: Ord + std::hash::Hash + Clone + Send + 'static> Aggregate for GroupAggregator<K> {
    type Record = (K, Target, f64);
    type Output = DaySketches<K>;

    fn observe(&mut self, (key, target, rtt_ms): (K, Target, f64)) {
        self.sketches
            .entry((key, target))
            .or_insert_with(|| QuantileSketch::new(self.eps))
            .observe(rtt_ms);
    }

    fn finish(self) -> DaySketches<K> {
        self.sketches.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{merge_keyed, ShardConfig, ShardedIngest};
    use crate::sketch::mix64;
    use anycast_netsim::SiteId;

    fn obs(i: u64) -> (u32, Target, f64) {
        let key = (i % 13) as u32;
        let target = if i.is_multiple_of(4) {
            Target::Anycast
        } else {
            Target::Unicast(SiteId((i % 3) as u16))
        };
        (key, target, (mix64(i) % 200) as f64)
    }

    #[test]
    fn observe_and_pool_across_days() {
        let mut w: DayWindow<u32> = DayWindow::new(0.05);
        for i in 0..2_000u64 {
            let (k, t, v) = obs(i);
            w.observe(Day((i % 3) as u32), k, t, v);
        }
        assert_eq!(w.days(), vec![Day(0), Day(1), Day(2)]);
        let pooled = w.pooled(&[Day(0), Day(1), Day(2)]);
        let total: u64 = pooled.values().map(|s| s.count()).sum();
        assert_eq!(total, 2_000, "pooling must conserve exact counts");
        // Pooling a single day is the day itself.
        assert_eq!(&w.pooled(&[Day(1)]), w.day(Day(1)).unwrap());
    }

    #[test]
    fn sharded_day_equals_direct_day() {
        let records: Vec<(u32, Target, f64)> = (0..5_000).map(obs).collect();

        let mut direct: DayWindow<u32> = DayWindow::new(0.02);
        for &(k, t, v) in &records {
            direct.observe(Day(0), k, t, v);
        }

        for workers in [1usize, 4] {
            let cfg = ShardConfig {
                workers,
                batch: 64,
                queue_depth: 2,
            };
            let mut ingest = ShardedIngest::new(
                cfg,
                |r: &(u32, Target, f64)| mix64(u64::from(r.0)),
                |_| GroupAggregator::new(0.02),
            );
            for &r in &records {
                ingest.push(r).unwrap();
            }
            let merged = merge_keyed(ingest.finish().unwrap(), |a: &mut QuantileSketch, b| {
                a.merge(&b)
            });
            let mut sharded: DayWindow<u32> = DayWindow::new(0.02);
            sharded.absorb_day(Day(0), merged);
            assert_eq!(
                sharded.day(Day(0)),
                direct.day(Day(0)),
                "workers={workers}: sharded day must be bit-identical to direct ingestion"
            );
        }
    }

    #[test]
    fn exact_counts_survive_sharding() {
        let records: Vec<(u32, Target, f64)> = (0..999).map(obs).collect();
        let cfg = ShardConfig {
            workers: 3,
            batch: 10,
            queue_depth: 2,
        };
        let mut ingest = ShardedIngest::new(
            cfg,
            |r: &(u32, Target, f64)| mix64(u64::from(r.0)),
            |_| GroupAggregator::new(0.05),
        );
        for &r in &records {
            ingest.push(r).unwrap();
        }
        let merged = merge_keyed(ingest.finish().unwrap(), |a: &mut QuantileSketch, b| {
            a.merge(&b)
        });
        let total: u64 = merged.values().map(|s| s.count()).sum();
        assert_eq!(total, 999);
    }
}
