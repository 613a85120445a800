//! Property tests for the beacon apparatus.

use anycast_beacon::{timing, MeasurementPolicy, Slot};
use anycast_dns::RedirectionPolicy;
use anycast_geo::GeoPoint;
use anycast_netsim::{CdnAddressing, SiteId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn sites(n_sites: u16) -> Vec<(SiteId, GeoPoint)> {
    (0..n_sites)
        .map(|i| {
            // Spread sites around the globe deterministically.
            let lat = -60.0 + (f64::from(i) * 37.0) % 120.0;
            let lon = -180.0 + (f64::from(i) * 83.0) % 360.0;
            (SiteId(i), GeoPoint::new(lat, lon))
        })
        .collect()
}

fn policy(n_sites: u16, candidates: usize) -> MeasurementPolicy {
    MeasurementPolicy::new(
        sites(n_sites),
        CdnAddressing::standard(n_sites),
        candidates,
        300,
        5,
    )
}

/// The `k` sites of `sites(n_sites)` nearest `loc`, nearest first.
fn nearest(n_sites: u16, loc: &GeoPoint, k: usize) -> Vec<SiteId> {
    let mut by_km = sites(n_sites);
    by_km.sort_by(|a, b| a.1.haversine_km(loc).total_cmp(&b.1.haversine_km(loc)));
    by_km.into_iter().take(k).map(|(s, _)| s).collect()
}

proptest! {
    #[test]
    fn slot_ids_partition_the_id_space(id in any::<u64>()) {
        let slot = Slot::from_id(id);
        let exec = Slot::execution_of(id);
        prop_assert_eq!(slot.id_for(exec) & !3, id & !3);
        prop_assert_eq!(Slot::from_id(slot.id_for(exec)), slot);
    }

    #[test]
    fn geo_closest_is_always_the_nearest_candidate(
        lat in -85.0..85.0f64, lon in -180.0..180.0f64, counter in any::<u64>()
    ) {
        let p = policy(24, 10);
        let loc = GeoPoint::new(lat, lon);
        let chosen = p.select_site(Slot::GeoClosest, Slot::GeoClosest.id_for(counter), &loc);
        prop_assert_eq!(chosen, Some(nearest(24, &loc, 1)[0]));
    }

    #[test]
    fn random_slots_stay_within_the_candidate_set(
        lat in -85.0..85.0f64, lon in -180.0..180.0f64, counter in any::<u64>()
    ) {
        let p = policy(24, 10);
        let loc = GeoPoint::new(lat, lon);
        let candidates = nearest(24, &loc, 10);
        for slot in [Slot::Random1, Slot::Random2] {
            let site = p.select_site(slot, slot.id_for(counter), &loc).unwrap();
            prop_assert!(candidates.contains(&site));
            // Never the geo-closest ("the other nine candidates").
            prop_assert_ne!(site, candidates[0]);
        }
    }

    #[test]
    fn anycast_slot_never_selects_a_site(
        lat in -85.0..85.0f64, lon in -180.0..180.0f64, counter in any::<u64>()
    ) {
        let p = policy(24, 10);
        let loc = GeoPoint::new(lat, lon);
        prop_assert_eq!(p.select_site(Slot::Anycast, Slot::Anycast.id_for(counter), &loc), None);
    }

    #[test]
    fn tiny_deployments_still_answer(
        n_sites in 2u16..5, lat in -85.0..85.0f64, lon in -180.0..180.0f64, counter in any::<u64>()
    ) {
        // Candidate cap larger than the deployment must degrade gracefully.
        let p = policy(n_sites, 10);
        let loc = GeoPoint::new(lat, lon);
        for slot in [Slot::GeoClosest, Slot::Random1, Slot::Random2] {
            let site = p.select_site(slot, slot.id_for(counter), &loc);
            prop_assert!(site.is_some());
            prop_assert!(site.unwrap().0 < n_sites);
        }
    }

    #[test]
    fn timing_reports_are_integers_and_bounded_below(
        rtt in 0.1..2000.0f64, compliant in any::<bool>(), seed in any::<u64>()
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let v = timing::observe(rtt, compliant, &mut rng);
        prop_assert_eq!(v, v.round());
        prop_assert!(v >= rtt.round() - 0.5 - 1e-9, "report below truth: {v} < {rtt}");
    }

    #[test]
    fn policy_answers_resolve_to_valid_addresses(
        lat in -85.0..85.0f64, lon in -180.0..180.0f64, counter in 0u64..10_000
    ) {
        use anycast_dns::{DnsName, LdnsId, QueryContext};
        use anycast_netsim::Day;
        let p = policy(24, 10);
        let plan = CdnAddressing::standard(24);
        let zone = DnsName::new("cdn.example").unwrap();
        for slot in Slot::ALL {
            let qname = DnsName::measurement(slot.id_for(counter), &zone);
            let ctx = QueryContext {
                qname: &qname,
                ldns: LdnsId(0),
                ldns_location: GeoPoint::new(lat, lon),
                ecs: None,
                day: Day(0),
                time_s: 0.0,
            };
            let answer = p.answer(&ctx);
            let valid = plan.is_anycast(answer.addr) || plan.site_for_ip(answer.addr).is_some();
            prop_assert!(valid, "unroutable answer {}", answer.addr);
        }
    }
}
