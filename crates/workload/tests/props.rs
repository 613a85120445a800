//! Property tests for workload generation.

use anycast_geo::{GeoPoint, MetroId, Region};
use anycast_netsim::{Day, NetConfig, Prefix24, SiteId, Topology};
use anycast_workload::record::{daily_serving_site, query_volume, sites_seen};
use anycast_workload::volume::zipf_volumes;
use anycast_workload::{
    ldns_assign, population, temporal, LdnsConfig, PassiveRecord, PopulationConfig, Scenario,
    ScenarioConfig,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zipf_volumes_hold_their_invariants(
        n in 1usize..2000, s in 0.0..2.0f64, total in 100u64..1_000_000, seed in any::<u64>()
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let v = zipf_volumes(n, s, total, &mut rng);
        prop_assert_eq!(v.len(), n);
        prop_assert!(v.iter().all(|&x| x >= 1));
    }

    #[test]
    fn population_is_fully_attached(seed in 0u64..12) {
        let topo = Topology::generate(&NetConfig::small(), seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 99);
        let clients = population::generate(&topo, &PopulationConfig::small(), &mut rng);
        for c in &clients {
            prop_assert!(topo.eyeballs_at_metro(c.attachment.metro).contains(&c.attachment.as_id));
            prop_assert!(c.volume >= 1);
            prop_assert!(c.attachment.location.lat_deg().abs() <= 90.0);
        }
        // Prefixes are unique.
        let mut prefixes: Vec<_> = clients.iter().map(|c| c.prefix).collect();
        prefixes.sort();
        prefixes.dedup();
        prop_assert_eq!(prefixes.len(), clients.len());
    }

    #[test]
    fn ldns_assignment_is_total_and_stable(seed in 0u64..10) {
        let topo = Topology::generate(&NetConfig::small(), seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 7);
        let clients = population::generate(&topo, &PopulationConfig::small(), &mut rng);
        let a = ldns_assign::assign(&topo, &clients, &LdnsConfig::default(), &mut rng);
        for c in &clients {
            let id = a.resolver_of(c.prefix);
            prop_assert!((id.0 as usize) < a.resolvers.len());
            prop_assert_eq!(a.resolver(id).id, id);
        }
    }

    #[test]
    fn diurnal_weight_is_positive_everywhere(h in -100.0..100.0f64) {
        prop_assert!(temporal::diurnal_weight(h) > 0.0);
    }

    #[test]
    fn sampled_query_times_are_within_a_day(lon in -180.0..180.0f64, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let t = temporal::sample_query_time(lon, &mut rng);
            prop_assert!((0.0..86_400.0).contains(&t));
        }
    }

    #[test]
    fn flip_times_are_deterministic_and_in_range(seed in 0u64..6, idx in 0usize..100, day in 0u32..28) {
        let s = Scenario::small(seed);
        let c = &s.clients[idx % s.clients.len()];
        let switch = s.internet.anycast_day(&c.attachment, Day(day)).switch;
        if let Some((t, _)) = switch {
            prop_assert!((0.0..86_400.0).contains(&t));
        }
        prop_assert_eq!(switch, s.internet.anycast_day(&c.attachment, Day(day)).switch);
    }

    #[test]
    fn invalid_sample_rates_are_rejected(rate in prop::sample::select(vec![-0.1f64, 1.0001, 5.0])) {
        let cfg = ScenarioConfig { passive_sample_rate: rate, ..ScenarioConfig::small(0) };
        prop_assert!(Scenario::build(cfg).is_err());
    }
}

#[test]
fn passive_records_reference_real_entities() {
    let s = Scenario::small(31);
    let mut rng = anycast_workload::scenario::seeded_rng(31, 1);
    let prefixes: std::collections::HashSet<_> = s.clients.iter().map(|c| c.prefix).collect();
    let n_sites = s.internet.topology().cdn.sites.len() as u16;
    for r in s.generate_passive_day(Day(0), &mut rng) {
        assert!(prefixes.contains(&r.prefix));
        assert!(r.site.0 < n_sites);
        assert!((0.0..86_400.0).contains(&r.time_s));
        assert_eq!(r.day, Day(0));
    }
}

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
        let records: Vec<PassiveRecord> =
            rows.iter().map(|&(p, s, d, t)| record(p, s, d, t)).collect();
        // Each day's sites seen sum to that day's records.
        let by_day: u64 = (0..7)
            .map(|d| sites_seen(&records, Day(d)).values().flat_map(|m| m.values()).sum::<u64>())
            .sum();
        prop_assert_eq!(by_day as usize, rows.len());
        // Volumes sum to the total too.
        let vol: u64 = query_volume(&records).values().sum();
        prop_assert_eq!(vol as usize, rows.len());
    }

    #[test]
    fn majority_site_is_a_mode(
        sites in prop::collection::vec(0u16..4, 1..50)
    ) {
        let records: Vec<PassiveRecord> =
            sites.iter().enumerate().map(|(i, &s)| record(1, s, 0, i as f64)).collect();
        let chosen = daily_serving_site(&records)
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
        let records: Vec<PassiveRecord> =
            rows.iter().enumerate().map(|(i, &(p, s))| record(p, s, 0, i as f64)).collect();
        let seen = sites_seen(&records, Day(0));
        let total: u64 = seen.values().flat_map(|m| m.values()).sum();
        prop_assert_eq!(total as usize, rows.len());
    }
}
