//! Adapters from the repo's record types into pipeline streams.
//!
//! **Beacon measurements** — `anycast_beacon::BeaconMeasurement`, the
//! joined active measurements — become `(group, target, latency)` training
//! records at ECS or LDNS granularity ([`ecs_record_with_failures`],
//! [`ldns_record_with_failures`]). [`sketch_day`] gathers one record
//! stream into per-pair columns.
//!
//! [`route_subnet`] hashes the *group* key, so sharded ingestion keeps the
//! key-ownership discipline `shard`'s determinism contract requires.

use std::hash::Hash;

use anycast_beacon::{BeaconMeasurement, Target, FETCH_TIMEOUT_MS};
use anycast_dns::LdnsId;
use anycast_netsim::{Prefix, Prefix24};
use anycast_obs::counter;

use crate::shard::{owner, run_workers, ShardConfig};
use crate::sketch::{mix64, FastMap, QuantileSketch};
use crate::window::DaySketches;

/// The latency a measurement contributes to training: its RTT, or for a
/// *failed* fetch (every attempt timed out against a dead or converging
/// front-end) the fetch timeout. Failed fetches carry no RTT, but silently
/// dropping them would make a flaky front-end look as good as its
/// successful fetches — the predictor would happily redirect clients to a
/// site that times out on them. Charging each failure the timeout makes
/// unreliability count against a target exactly as much as being that
/// slow; worlds without failures never take the branch.
fn training_ms(m: &BeaconMeasurement) -> f64 {
    if m.failed {
        FETCH_TIMEOUT_MS
    } else {
        m.rtt_ms
    }
}

/// A beacon measurement as an ECS-granularity latency observation, failures
/// scored as slow rather than invisible.
pub fn ecs_record_with_failures(m: &BeaconMeasurement) -> (Prefix24, Target, f64) {
    (m.prefix, m.target, training_ms(m))
}

/// A beacon measurement as an LDNS-granularity latency observation
/// ("assigning each front-end measurement made by a client to the
/// client's LDNS", §6), failure-aware like [`ecs_record_with_failures`].
pub fn ldns_record_with_failures(m: &BeaconMeasurement) -> (LdnsId, Target, f64) {
    (m.ldns, m.target, training_ms(m))
}

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
/// whose group `route` hashes to it (see [`crate::shard`]). What is read
/// from the result is bit-identical for any `cfg.workers`.
///
/// # Panics
/// Panics when `cfg.workers` is 0, and with the [`ShardError`] text of the
/// first worker that panicked.
///
/// [`ShardError`]: crate::ShardError
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
    use anycast_netsim::{Day, SiteId};
    use std::net::Ipv4Addr;

    #[test]
    fn beacon_adapters_project_the_right_fields() {
        use anycast_beacon::Slot;
        let m = BeaconMeasurement {
            measurement_id: Slot::Anycast.id_for(7),
            slot: Slot::Anycast,
            prefix: Prefix24::containing(Ipv4Addr::new(11, 2, 3, 4)),
            ldns: LdnsId(9),
            ecs: None,
            target: Target::Anycast,
            served_site: SiteId(1),
            rtt_ms: 42.0,
            failed: false,
            day: Day(3),
            time_s: 1.0,
        };
        assert_eq!(
            ecs_record_with_failures(&m),
            (m.prefix, Target::Anycast, 42.0)
        );
        assert_eq!(
            ldns_record_with_failures(&m),
            (LdnsId(9), Target::Anycast, 42.0)
        );
        let failed = BeaconMeasurement { failed: true, ..m };
        assert_eq!(ecs_record_with_failures(&failed).2, FETCH_TIMEOUT_MS);
    }

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
