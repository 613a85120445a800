//! Day-partitioned storage of passive records.
//!
//! The analyses consume the log in two shapes: per-day group-bys over
//! prefixes (Figure 4's daily distance distribution) and per-prefix
//! time-series across days (Figure 7's cumulative switch curve). The store
//! keeps records partitioned by day and provides both views without
//! copying.

use std::collections::{BTreeMap, HashMap};

use anycast_netsim::{Day, Prefix24, SiteId};

use crate::record::PassiveRecord;

/// In-memory passive log store.
#[derive(Debug, Clone, Default)]
pub struct TelemetryStore {
    days: BTreeMap<Day, Vec<PassiveRecord>>,
}

impl TelemetryStore {
    /// Creates an empty store.
    pub fn new() -> TelemetryStore {
        TelemetryStore::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: PassiveRecord) {
        self.days.entry(record.day).or_default().push(record);
    }

    /// Records for one day (empty slice if none).
    pub fn day(&self, day: Day) -> &[PassiveRecord] {
        self.days.get(&day).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Days present, in order.
    pub fn days(&self) -> impl Iterator<Item = Day> + '_ {
        self.days.keys().copied()
    }

    /// Every record across all days, day order then insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &PassiveRecord> {
        self.days.values().flatten()
    }

    /// Total record count.
    pub fn len(&self) -> usize {
        self.days.values().map(Vec::len).sum()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Query volume per prefix across the whole store — the weighting the
    /// paper applies "to reflect that the number of queries per /24 is
    /// heavily skewed across prefixes" (§3.2).
    pub fn query_volume(&self) -> HashMap<Prefix24, u64> {
        let mut out: HashMap<Prefix24, u64> = HashMap::new();
        for r in self.iter() {
            *out.entry(r.prefix).or_default() += 1;
        }
        out
    }

    /// The site that served the *majority* of a prefix's queries each day —
    /// the affinity analyses track this per-day serving site. Prefixes with
    /// no queries on a day are absent for that day. Ties break towards the
    /// lower site id (deterministic).
    pub fn daily_serving_site(&self) -> HashMap<Prefix24, BTreeMap<Day, SiteId>> {
        let mut out: HashMap<Prefix24, BTreeMap<Day, SiteId>> = HashMap::new();
        for (&day, records) in &self.days {
            let mut counts: HashMap<(Prefix24, SiteId), u64> = HashMap::new();
            for r in records {
                *counts.entry((r.prefix, r.site)).or_default() += 1;
            }
            let mut best: HashMap<Prefix24, (SiteId, u64)> = HashMap::new();
            for ((prefix, site), n) in counts {
                match best.get(&prefix) {
                    Some(&(s, m)) if (m, std::cmp::Reverse(s)) >= (n, std::cmp::Reverse(site)) => {}
                    _ => {
                        best.insert(prefix, (site, n));
                    }
                }
            }
            for (prefix, (site, _)) in best {
                out.entry(prefix).or_default().insert(day, site);
            }
        }
        out
    }

    /// All sites that served a prefix on a given day, with counts — used to
    /// detect *within-day* front-end switches (Figure 7's first-day churn).
    pub fn sites_seen(&self, day: Day) -> HashMap<Prefix24, HashMap<SiteId, u64>> {
        let mut out: HashMap<Prefix24, HashMap<SiteId, u64>> = HashMap::new();
        for r in self.day(day) {
            *out.entry(r.prefix).or_default().entry(r.site).or_default() += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_geo::{GeoPoint, MetroId, Region};
    use std::net::Ipv4Addr;

    fn rec(prefix_octet: u8, site: u16, day: u32, t: f64) -> PassiveRecord {
        PassiveRecord {
            prefix: Prefix24::containing(Ipv4Addr::new(11, 0, prefix_octet, 1)),
            metro: MetroId(0),
            country: "US",
            region: Region::NorthAmerica,
            location: GeoPoint::new(40.0, -74.0),
            site: SiteId(site),
            day: Day(day),
            time_s: t,
        }
    }

    #[test]
    fn push_and_day_partition() {
        let mut s = TelemetryStore::new();
        s.push(rec(1, 0, 0, 1.0));
        s.push(rec(1, 0, 1, 2.0));
        s.push(rec(2, 1, 0, 3.0));
        assert_eq!(s.len(), 3);
        assert_eq!(s.day(Day(0)).len(), 2);
        assert_eq!(s.day(Day(1)).len(), 1);
        assert_eq!(s.day(Day(9)).len(), 0);
        assert_eq!(s.days().collect::<Vec<_>>(), vec![Day(0), Day(1)]);
    }

    #[test]
    fn query_volume_counts_per_prefix() {
        let mut s = TelemetryStore::new();
        for _ in 0..5 {
            s.push(rec(1, 0, 0, 0.0));
        }
        s.push(rec(2, 0, 0, 0.0));
        let vol = s.query_volume();
        assert_eq!(vol[&Prefix24::containing(Ipv4Addr::new(11, 0, 1, 1))], 5);
        assert_eq!(vol[&Prefix24::containing(Ipv4Addr::new(11, 0, 2, 1))], 1);
    }

    #[test]
    fn daily_serving_site_majority_wins() {
        let mut s = TelemetryStore::new();
        s.push(rec(1, 0, 0, 0.0));
        s.push(rec(1, 7, 0, 1.0));
        s.push(rec(1, 7, 0, 2.0));
        let sites = s.daily_serving_site();
        let p = Prefix24::containing(Ipv4Addr::new(11, 0, 1, 1));
        assert_eq!(sites[&p][&Day(0)], SiteId(7));
    }

    #[test]
    fn daily_serving_site_tie_breaks_low_id() {
        let mut s = TelemetryStore::new();
        s.push(rec(1, 9, 0, 0.0));
        s.push(rec(1, 2, 0, 1.0));
        let sites = s.daily_serving_site();
        let p = Prefix24::containing(Ipv4Addr::new(11, 0, 1, 1));
        assert_eq!(sites[&p][&Day(0)], SiteId(2));
    }

    #[test]
    fn sites_seen_detects_multi_site_days() {
        let mut s = TelemetryStore::new();
        s.push(rec(1, 0, 0, 0.0));
        s.push(rec(1, 3, 0, 1.0));
        s.push(rec(2, 0, 0, 2.0));
        let seen = s.sites_seen(Day(0));
        let p1 = Prefix24::containing(Ipv4Addr::new(11, 0, 1, 1));
        let p2 = Prefix24::containing(Ipv4Addr::new(11, 0, 2, 1));
        assert_eq!(seen[&p1].len(), 2);
        assert_eq!(seen[&p2].len(), 1);
    }

    #[test]
    fn empty_store_behaves() {
        let s = TelemetryStore::new();
        assert!(s.is_empty());
        assert!(s.query_volume().is_empty());
        assert!(s.daily_serving_site().is_empty());
    }
}
