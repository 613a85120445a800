//! Property tests for workload generation.

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
        prop_assert_eq!(a.by_client.len(), clients.len());
        for i in 0..clients.len() {
            let id = a.resolver_of(i);
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
    fn client_index_inverts_the_population(seed in 0u64..6, raw in any::<u32>()) {
        let s = Scenario::small(seed);
        for (i, c) in s.clients.iter().enumerate() {
            prop_assert_eq!(s.client_index(c.prefix), Some(i));
        }
        // The /24s just outside the population's lowest and highest, and
        // an arbitrary one, agree with a scan; the first two always miss.
        let raws = s.clients.iter().map(|c| c.prefix.raw());
        let (lo, hi) = (raws.clone().min().unwrap(), raws.max().unwrap());
        let outside = [lo.wrapping_sub(256), hi.wrapping_add(256)].map(Prefix24::from_raw);
        for p in outside {
            prop_assert_eq!(s.client_index(p), None);
        }
        let p = Prefix24::from_raw(raw);
        prop_assert_eq!(s.client_index(p), s.clients.iter().position(|c| c.prefix == p));
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
    let n_sites = s.internet.topology().cdn.sites.len() as u16;
    for r in s.generate_passive_day(Day(0), &mut rng) {
        assert!((r.client as usize) < s.clients.len());
        assert!(r.site.0 < n_sites);
        assert!((0.0..86_400.0).contains(&r.time_s));
        assert_eq!(r.day, Day(0));
    }
}

fn record(client: u32, site: u16, day: u32, t: f64) -> PassiveRecord {
    PassiveRecord {
        client,
        site: SiteId(site),
        day: Day(day),
        time_s: t,
    }
}

/// Clients the group-by properties draw from.
const CLIENTS: usize = 20;

proptest! {
    #[test]
    fn store_preserves_every_record(
        rows in prop::collection::vec((0u32..20, 0u16..8, 0u32..7, 0.0..86_400.0f64), 0..300)
    ) {
        let records: Vec<PassiveRecord> =
            rows.iter().map(|&(c, s, d, t)| record(c, s, d, t)).collect();
        // Each day's sites seen sum to that day's records.
        let by_day: u64 = (0..7)
            .map(|d| {
                let seen = sites_seen(&records, Day(d), CLIENTS);
                seen.iter().flat_map(|m| m.values()).sum::<u64>()
            })
            .sum();
        prop_assert_eq!(by_day as usize, rows.len());
        // Each client's volume is its own count of records.
        let vol = query_volume(&records, CLIENTS);
        for (c, &n) in (0..).zip(&vol) {
            prop_assert_eq!(n as usize, rows.iter().filter(|r| r.0 == c).count());
        }
    }

    #[test]
    fn majority_site_is_a_mode(
        sites in prop::collection::vec(0u16..4, 1..50)
    ) {
        let records: Vec<PassiveRecord> =
            sites.iter().enumerate().map(|(i, &s)| record(1, s, 0, i as f64)).collect();
        let serving = daily_serving_site(&records, CLIENTS);
        prop_assert!(serving.iter().enumerate().all(|(c, days)| days.is_empty() == (c != 1)));
        let chosen = serving[1][&Day(0)];
        // The chosen site's count must be maximal.
        let count = |site: u16| sites.iter().filter(|&&s| s == site).count();
        let max = (0u16..4).map(count).max().unwrap();
        prop_assert_eq!(count(chosen.0), max);
    }

    #[test]
    fn sites_seen_counts_match(
        rows in prop::collection::vec((0u32..5, 0u16..4), 1..100)
    ) {
        let records: Vec<PassiveRecord> =
            rows.iter().enumerate().map(|(i, &(c, s))| record(c, s, 0, i as f64)).collect();
        let seen = sites_seen(&records, Day(0), CLIENTS);
        for (c, sites) in (0..).zip(&seen) {
            for (&site, &n) in sites {
                let rows_of = rows.iter().filter(|&&(rc, rs)| rc == c && rs == site.0);
                prop_assert_eq!(n as usize, rows_of.count());
            }
        }
        let total: u64 = seen.iter().flat_map(|m| m.values()).sum();
        prop_assert_eq!(total as usize, rows.len());
    }
}
