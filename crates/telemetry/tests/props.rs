//! Property tests for the passive-log store.

use anycast_geo::{GeoPoint, MetroId, Region};
use anycast_netsim::{Day, Prefix24, SiteId};
use anycast_telemetry::{PassiveRecord, TelemetryStore};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn record(prefix_octet: u8, site: u16, day: u32, t: f64) -> PassiveRecord {
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

proptest! {
    #[test]
    fn store_preserves_every_record(
        rows in prop::collection::vec((0u8..20, 0u16..8, 0u32..7, 0.0..86_400.0f64), 0..300)
    ) {
        let mut store = TelemetryStore::new();
        for &(p, s, d, t) in &rows {
            store.push(record(p, s, d, t));
        }
        prop_assert_eq!(store.len(), rows.len());
        // Day partitions sum to the total.
        let by_day: usize = store.days().map(|d| store.day(d).len()).sum();
        prop_assert_eq!(by_day, rows.len());
        // Volumes sum to the total too.
        let vol: u64 = store.query_volume().values().sum();
        prop_assert_eq!(vol as usize, rows.len());
    }

    #[test]
    fn majority_site_is_a_mode(
        sites in prop::collection::vec(0u16..4, 1..50)
    ) {
        let mut store = TelemetryStore::new();
        for (i, &s) in sites.iter().enumerate() {
            store.push(record(1, s, 0, i as f64));
        }
        let chosen = store.daily_serving_site()
            [&Prefix24::containing(Ipv4Addr::new(11, 0, 1, 1))][&Day(0)];
        // The chosen site's count must be maximal.
        let count = |site: u16| sites.iter().filter(|&&s| s == site).count();
        let max = (0u16..4).map(count).max().unwrap();
        prop_assert_eq!(count(chosen.0), max);
    }

    #[test]
    fn sites_seen_counts_match(
        rows in prop::collection::vec((0u8..5, 0u16..4), 1..100)
    ) {
        let mut store = TelemetryStore::new();
        for (i, &(p, s)) in rows.iter().enumerate() {
            store.push(record(p, s, 0, i as f64));
        }
        let seen = store.sites_seen(Day(0));
        let total: u64 = seen.values().flat_map(|m| m.values()).sum();
        prop_assert_eq!(total as usize, rows.len());
    }
}
