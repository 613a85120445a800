//! Adapters from the repo's record types into pipeline streams.
//!
//! **Beacon measurements** — `anycast_beacon::BeaconMeasurement`, the
//! joined active measurements — feed per-`(group, target)` latency
//! sketches at ECS or LDNS granularity ([`ecs_record_with_failures`],
//! [`ldns_record_with_failures`]);
//! `(key, served)` request outcomes feed per-key availability tallies
//! ([`tally_outcomes`]).
//!
//! Routing helpers hash the *group* key ([`route_prefix`], [`route_ldns`])
//! so sharded ingestion keeps the key-ownership discipline `shard`'s
//! determinism contract requires.

use std::collections::BTreeMap;

use anycast_beacon::{BeaconMeasurement, Target};
use anycast_dns::LdnsId;
use anycast_netsim::{Prefix, Prefix24};

use crate::shard::{merge_keyed, Aggregate, ShardConfig, ShardedIngest};
use crate::sketch::{mix64, QuantileSketch};
use crate::window::DaySketches;

/// A beacon measurement as an ECS-granularity latency observation. A
/// failed fetch (timeout against a dead front-end) contributes `penalty_ms`
/// instead of its meaningless reported latency, so availability-aware
/// training sees dead targets as very slow rather than invisible.
pub fn ecs_record_with_failures(m: &BeaconMeasurement, penalty_ms: f64) -> (Prefix24, Target, f64) {
    let v = if m.failed { penalty_ms } else { m.rtt_ms };
    (m.prefix, m.target, v)
}

/// A beacon measurement as an LDNS-granularity latency observation
/// ("assigning each front-end measurement made by a client to the
/// client's LDNS", §6), failure-aware like [`ecs_record_with_failures`].
pub fn ldns_record_with_failures(m: &BeaconMeasurement, penalty_ms: f64) -> (LdnsId, Target, f64) {
    let v = if m.failed { penalty_ms } else { m.rtt_ms };
    (m.ldns, m.target, v)
}

/// Shard route for prefix-keyed records.
pub fn route_prefix(p: Prefix24) -> u64 {
    mix64(p.key())
}

/// Shard route for variable-length subnet keys (aggregated prediction
/// groups). `Prefix::key` folds the length in, so a /16 and the /24 at the
/// same network route independently.
pub fn route_subnet(p: Prefix) -> u64 {
    mix64(p.key())
}

/// Shard route for LDNS-keyed records.
pub fn route_ldns(l: LdnsId) -> u64 {
    // Offset into a different key plane than prefixes so mixed pipelines
    // never collide structurally.
    mix64(0x4c44_4e53_0000_0000 | u64::from(l.0))
}

/// Runs one day of `(group, target, rtt)` records through sharded
/// ingestion and returns the merged per-`(group, target)` sketches.
/// Convenience wrapper over [`ShardedIngest`] + [`merge_keyed`]; the
/// result is bit-identical for any `cfg.workers`.
pub fn sketch_day<K, I>(
    records: I,
    eps: f64,
    cfg: ShardConfig,
    route: impl Fn(&K) -> u64 + 'static,
) -> DaySketches<K>
where
    K: Ord + std::hash::Hash + Clone + Send + 'static,
    I: IntoIterator<Item = (K, Target, f64)>,
{
    let mut ingest = ShardedIngest::new(
        cfg,
        move |r: &(K, Target, f64)| route(&r.0),
        |_| crate::window::GroupAggregator::new(eps),
    );
    for r in records {
        if let Err(e) = ingest.push(r) {
            panic!("sketch_day ingestion failed: {e}");
        }
    }
    let parts = ingest
        .finish()
        .unwrap_or_else(|e| panic!("sketch_day ingestion failed: {e}"));
    merge_keyed(parts, |a: &mut QuantileSketch, b| a.merge(&b))
}

/// Success/failure counts for one request group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Requests that were served.
    pub ok: u64,
    /// Requests that failed (timed out against a dead front-end, or were
    /// lost while routing reconverged).
    pub failed: u64,
}

impl OutcomeCounts {
    /// Total requests observed.
    pub fn total(&self) -> u64 {
        self.ok + self.failed
    }

    /// Served fraction in `[0, 1]`; an empty group counts as available.
    pub fn availability(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.ok as f64 / self.total() as f64
        }
    }

    /// Adds another group's counts (used by [`merge_keyed`]).
    pub fn absorb(&mut self, other: OutcomeCounts) {
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

/// The [`Aggregate`] over `(key, served)` request-outcome records: per-key
/// availability tallies for the failure experiments. Counts add under
/// merge, so the sharded tally is worker-count invariant like every other
/// pipeline in this crate.
#[derive(Debug, Clone)]
pub struct OutcomeTally<K> {
    counts: BTreeMap<K, OutcomeCounts>,
}

impl<K> Default for OutcomeTally<K> {
    fn default() -> Self {
        OutcomeTally {
            counts: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Send + 'static> Aggregate for OutcomeTally<K> {
    type Record = (K, bool);
    type Output = BTreeMap<K, OutcomeCounts>;

    fn observe(&mut self, (key, served): (K, bool)) {
        let c = self.counts.entry(key).or_default();
        if served {
            c.ok += 1;
        } else {
            c.failed += 1;
        }
    }

    fn finish(self) -> BTreeMap<K, OutcomeCounts> {
        self.counts
    }
}

/// Runs `(key, served)` outcome records through sharded ingestion and
/// returns the merged per-key tallies. Bit-identical for any
/// `cfg.workers`.
pub fn tally_outcomes<K, I>(
    records: I,
    cfg: ShardConfig,
    route: impl Fn(&K) -> u64 + 'static,
) -> BTreeMap<K, OutcomeCounts>
where
    K: Ord + Send + 'static,
    I: IntoIterator<Item = (K, bool)>,
{
    let mut ingest = ShardedIngest::new(
        cfg,
        move |r: &(K, bool)| route(&r.0),
        |_| OutcomeTally::default(),
    );
    for r in records {
        if let Err(e) = ingest.push(r) {
            panic!("outcome tally ingestion failed: {e}");
        }
    }
    let parts = ingest
        .finish()
        .unwrap_or_else(|e| panic!("outcome tally ingestion failed: {e}"));
    merge_keyed(parts, |a: &mut OutcomeCounts, b| a.absorb(b))
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
            ecs_record_with_failures(&m, 3000.0),
            (m.prefix, Target::Anycast, 42.0)
        );
        assert_eq!(
            ldns_record_with_failures(&m, 3000.0),
            (LdnsId(9), Target::Anycast, 42.0)
        );
        assert_ne!(route_prefix(m.prefix), route_ldns(m.ldns));
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
        assert_eq!(day.values().map(|s| s.count()).sum::<u64>(), 500);
    }
}
