//! Property tests for the geography substrate.

use anycast_geo::{GeoDb, GeoPoint, NearestIndex, WorldAtlas};
use proptest::prelude::*;

fn lat() -> impl Strategy<Value = f64> {
    -90.0..90.0f64
}

fn lon() -> impl Strategy<Value = f64> {
    -180.0..180.0f64
}

proptest! {
    #[test]
    fn constructor_always_yields_valid_coordinates(raw_lat in -1e9..1e9f64, raw_lon in -1e9..1e9f64) {
        let p = GeoPoint::new(raw_lat, raw_lon);
        prop_assert!(p.lat_deg().abs() <= 90.0);
        prop_assert!(p.lon_deg().abs() <= 180.0);
    }

    #[test]
    fn geodb_is_a_pure_function(seed in any::<u64>(), key in any::<u64>(), plat in lat(), plon in lon()) {
        let db = GeoDb::new(seed);
        let p = GeoPoint::new(plat, plon);
        prop_assert_eq!(db.locate(key, p), db.locate(key, p));
    }

    #[test]
    fn nearest_index_first_is_global_minimum(
        points in prop::collection::vec((lat(), lon()), 1..40),
        q_lat in lat(), q_lon in lon(),
    ) {
        let entries: Vec<(usize, GeoPoint)> = points
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (i, GeoPoint::new(a, b)))
            .collect();
        let locations = entries.clone();
        let index = NearestIndex::new(entries);
        let q = GeoPoint::new(q_lat, q_lon);
        let (best, best_d) = index.nearest(&q).unwrap();
        for (i, loc) in &locations {
            let d = loc.haversine_km(&q);
            prop_assert!(best_d <= d + 1e-9, "item {i} at {d} beats chosen {best} at {best_d}");
        }
    }

    #[test]
    fn k_nearest_returns_sorted_unique_items(
        points in prop::collection::vec((lat(), lon()), 1..40),
        q_lat in lat(), q_lon in lon(),
        k in 1usize..50,
    ) {
        let entries: Vec<(usize, GeoPoint)> = points
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (i, GeoPoint::new(a, b)))
            .collect();
        let n = entries.len();
        let index = NearestIndex::new(entries);
        let got = index.k_nearest(&GeoPoint::new(q_lat, q_lon), k);
        prop_assert_eq!(got.len(), k.min(n));
        let mut ids: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), got.len(), "duplicate items returned");
        for w in got.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn atlas_population_sampling_is_total(u in 0.0..1.0f64) {
        let atlas = WorldAtlas::new();
        let id = atlas.sample_by_population(u);
        prop_assert!((id.0 as usize) < atlas.len());
    }
}
