//! [`sketch_day`], and the shard route for prefix keys.

use std::hash::Hash;

use anycast_beacon::Target;
use anycast_netsim::stream::{mix64, run_workers, FastMap};
use anycast_netsim::Prefix;
use anycast_obs::counter;

use crate::shard::owner;
use crate::{DaySketches, QuantileSketch, ShardConfig};

/// Shard route for variable-length subnet keys (aggregated prediction
/// groups). `Prefix::key` folds the length in, so a /16 and the /24 at the
/// same network route independently.
pub fn route_subnet(p: Prefix) -> u64 {
    mix64(p.key())
}

/// Gathers one stream of `(group, target, rtt)` records — a day, or a
/// training window's days in order — into per-`(group, target)` columns,
/// each fed its pair's records in stream order. `eps` is ignored: the
/// columns are exact. Sharded by key ownership without a producer: each
/// of `cfg.workers` workers replays `records` itself and keeps the records
/// whose group `route` hashes to it. What is read from the result is
/// bit-identical for any `cfg.workers`.
///
/// # Panics
/// Panics when `cfg.workers` is 0, and with the
/// [`ShardError`](anycast_netsim::stream::ShardError) text of the first
/// worker that panicked.
pub fn sketch_day<K, I>(
    records: I,
    _eps: f64,
    cfg: ShardConfig,
    route: impl Fn(&K) -> u64 + Sync,
) -> DaySketches<K>
where
    K: Hash + Eq + Send,
    I: IntoIterator<Item = (K, Target, f64)> + Clone + Send,
{
    let workers = cfg.workers;
    assert!(workers > 0, "need at least one worker");
    let lanes = (0..workers).map(|_| records.clone()).collect();
    let shares = run_workers(lanes, |w, records: I| {
        let mut share: FastMap<(K, Target), QuantileSketch> = FastMap::default();
        let mut kept = 0u64;
        for (key, target, rtt_ms) in records {
            if owner(route(&key), workers) == w {
                share.entry((key, target)).or_default().observe(rtt_ms);
                kept += 1;
            }
        }
        // One atomic a worker: the sum is the rows ingested.
        counter!("pipeline_records_routed_total").add(kept);
        share
    })
    .unwrap_or_else(|e| panic!("sketch_day ingestion failed: {e}"));
    DaySketches { shares }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardConfig;
    use anycast_netsim::stream::mix64;

    #[test]
    fn sketch_day_convenience_matches_counts() {
        let records: Vec<(u32, Target, f64)> = (0..500u64)
            .map(|i| ((i % 7) as u32, Target::Anycast, i as f64))
            .collect();
        let day = sketch_day(records, 0.05, ShardConfig::default(), |k: &u32| {
            mix64(u64::from(*k))
        });
        assert_eq!(day.len(), 7);
        // 500 = 7 · 71 + 3: keys 0–2 hold 72 values, keys 3–6 hold 71.
        for (&(key, _), column) in day.iter() {
            assert_eq!(column.count(), if key < 3 { 72 } else { 71 }, "key {key}");
        }
    }

    #[test]
    fn sketch_day_panics_with_the_dead_workers_message() {
        // Key 3's owner meets a NaN; the caller sees which worker died
        // and why.
        let records = (0..200u64).map(|i| {
            let v = if i == 150 { f64::NAN } else { i as f64 };
            ((i % 5) as u32, Target::Anycast, v)
        });
        let died = std::panic::catch_unwind(|| {
            sketch_day(records, 0.05, ShardConfig { workers: 3 }, |k: &u32| {
                mix64(u64::from(*k))
            })
        })
        .expect_err("a worker panicked");
        let message = died.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.starts_with("sketch_day ingestion failed: shard worker ")
                && message.ends_with(" panicked: NaN fed to QuantileSketch"),
            "{message}"
        );
    }
}
