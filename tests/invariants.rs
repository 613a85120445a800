//! Property-based tests of workspace invariants.

use anycast_cdn::analysis::cdf::Ecdf;
use anycast_cdn::analysis::quantile::percentile;
use anycast_cdn::geo::GeoPoint;
use anycast_cdn::netsim::{Day, Prefix24};
use proptest::prelude::*;

fn finite_lat() -> impl Strategy<Value = f64> {
    -90.0..90.0f64
}

fn finite_lon() -> impl Strategy<Value = f64> {
    -180.0..180.0f64
}

proptest! {
    // ---- geography ----

    #[test]
    fn haversine_is_symmetric_and_nonnegative(
        a_lat in finite_lat(), a_lon in finite_lon(),
        b_lat in finite_lat(), b_lon in finite_lon(),
    ) {
        let a = GeoPoint::new(a_lat, a_lon);
        let b = GeoPoint::new(b_lat, b_lon);
        let d_ab = a.haversine_km(&b);
        let d_ba = b.haversine_km(&a);
        prop_assert!(d_ab >= 0.0);
        prop_assert!((d_ab - d_ba).abs() < 1e-6);
        prop_assert!(d_ab <= anycast_cdn::geo::coords::MAX_GREAT_CIRCLE_KM + 1.0);
    }

    #[test]
    fn haversine_triangle_inequality(
        a_lat in finite_lat(), a_lon in finite_lon(),
        b_lat in finite_lat(), b_lon in finite_lon(),
        c_lat in finite_lat(), c_lon in finite_lon(),
    ) {
        let a = GeoPoint::new(a_lat, a_lon);
        let b = GeoPoint::new(b_lat, b_lon);
        let c = GeoPoint::new(c_lat, c_lon);
        prop_assert!(a.haversine_km(&c) <= a.haversine_km(&b) + b.haversine_km(&c) + 1e-6);
    }

    #[test]
    fn destination_travels_the_requested_distance(
        lat in -80.0..80.0f64, lon in finite_lon(),
        bearing in 0.0..360.0f64, dist in 0.1..15_000.0f64,
    ) {
        let start = GeoPoint::new(lat, lon);
        let end = start.destination(bearing, dist);
        prop_assert!((start.haversine_km(&end) - dist).abs() < dist * 1e-6 + 1e-6);
    }

    // ---- statistics ----

    #[test]
    fn percentile_is_monotone_in_p(values in prop::collection::vec(0.0..1e6f64, 1..100)) {
        let p25 = percentile(&values, 25.0).unwrap();
        let p50 = percentile(&values, 50.0).unwrap();
        let p75 = percentile(&values, 75.0).unwrap();
        prop_assert!(p25 <= p50 && p50 <= p75);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p25 >= min && p75 <= max);
    }

    #[test]
    fn percentile_is_invariant_under_permutation(
        mut values in prop::collection::vec(0.0..1e6f64, 2..60),
        p in 0.0..100.0f64,
    ) {
        let before = percentile(&values, p).unwrap();
        values.reverse();
        prop_assert_eq!(percentile(&values, p).unwrap(), before);
    }

    #[test]
    fn ecdf_is_a_distribution(values in prop::collection::vec(-1e6..1e6f64, 1..200)) {
        let e = Ecdf::from_values(values.iter().copied());
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((e.fraction_at_or_below(max) - 1.0).abs() < 1e-12);
        prop_assert!(e.fraction_at_or_below(min - 1.0) == 0.0);
        // Monotone at arbitrary probe points.
        let probes = [min - 1.0, (min + max) / 2.0, max, max + 1.0];
        for w in probes.windows(2) {
            prop_assert!(e.fraction_at_or_below(w[0]) <= e.fraction_at_or_below(w[1]) + 1e-12);
        }
        // CDF + CCDF = 1 everywhere.
        for &x in &probes {
            prop_assert!((e.fraction_at_or_below(x) + e.fraction_above(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ecdf_quantile_round_trip(
        values in prop::collection::vec(0.0..1e6f64, 1..200),
        q in 0.0..1.0f64,
    ) {
        let e = Ecdf::from_values(values.iter().copied());
        let v = e.value_at_quantile(q).unwrap();
        prop_assert!(e.fraction_at_or_below(v) >= q - 1e-9);
    }

    #[test]
    fn weighted_ecdf_respects_weight_scaling(
        pairs in prop::collection::vec((0.0..1e4f64, 0.1..100.0f64), 1..100),
        probe in 0.0..1e4f64,
        scale in 0.5..10.0f64,
    ) {
        // Scaling every weight by a constant must not change the CDF.
        let a = Ecdf::from_weighted(pairs.iter().copied());
        let b = Ecdf::from_weighted(pairs.iter().map(|&(v, w)| (v, w * scale)));
        prop_assert!((a.fraction_at_or_below(probe) - b.fraction_at_or_below(probe)).abs() < 1e-9);
    }

    // ---- infrastructure ----

    #[test]
    fn prefix24_containment_is_consistent(raw in any::<u32>(), low in any::<u8>()) {
        let p = Prefix24::from_raw(raw);
        prop_assert!(p.contains(p.host(low)));
        prop_assert_eq!(Prefix24::containing(p.host(low)), p);
    }

    #[test]
    fn day_weekday_cycles_every_seven(day in 0u32..10_000) {
        let d = Day(day);
        prop_assert_eq!(d.weekday(), Day(day + 7).weekday());
        let weekend_days = Day(day).span(7).filter(|d| d.weekday().is_weekend()).count();
        prop_assert_eq!(weekend_days, 2);
    }
}

// Deterministic (non-proptest) cross-crate invariants that need a world.

#[test]
fn anycast_never_beats_every_unicast_probe_to_its_own_site_by_much() {
    // For any client and day, the unicast route to the site anycast chose
    // must not be wildly faster than anycast itself unless a pathology
    // (fixed egress, remote peering, congestion episode) separates the two
    // paths — sanity-check the magnitude distribution.
    use anycast_cdn::workload::Scenario;
    let scenario = Scenario::small(13);
    let mut big_gaps = 0;
    let mut total = 0;
    for client in scenario.clients.iter().take(300) {
        let any = scenario.internet.anycast_route(&client.attachment, Day(0));
        let uni = scenario
            .internet
            .unicast_route(&client.attachment, any.site, Day(0));
        total += 1;
        if any.base_rtt_ms - uni.base_rtt_ms > 30.0 {
            big_gaps += 1;
        }
    }
    assert!(
        big_gaps * 5 < total,
        "{big_gaps}/{total} clients see >30ms self-gap: model inconsistency"
    );
}

#[test]
fn routing_is_pure_across_repeated_queries() {
    use anycast_cdn::workload::Scenario;
    let scenario = Scenario::small(17);
    for client in scenario.clients.iter().take(50) {
        for day in Day(0).span(3) {
            let a = scenario.internet.anycast_route(&client.attachment, day);
            let b = scenario.internet.anycast_route(&client.attachment, day);
            assert_eq!(a, b);
        }
    }
}
