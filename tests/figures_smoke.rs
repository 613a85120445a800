//! Smoke test: artifact regeneration works end to end from the top level.
//!
//! Only the scenario-driven (study-free) artifacts run here to keep the
//! integration suite fast; the campaign-driven figures are exercised by
//! `anycast-bench`'s own tests and benches.

use anycast_bench::cli;
use anycast_bench::worlds::Scale;

const FAST_ARTIFACTS: [&str; 5] = [
    "fig2",
    "fig4",
    "table-cdn-sizes",
    "world-summary",
    "extra-ldns-distance",
];

#[test]
fn fast_artifacts_render_and_export() {
    for id in FAST_ARTIFACTS {
        let fig = anycast_bench::compute(id, Scale::Small, 1)
            .unwrap_or_else(|| panic!("{id} did not compute"));
        assert_eq!(fig.id, id);
        let text = fig.render();
        assert!(text.contains(id), "render of {id} lacks its id header");
        let csv = fig.to_csv();
        assert!(csv.starts_with("series,x,y"), "{id} CSV lacks header");
        // Every series row parses back as name,x,y with finite numbers.
        for line in csv.lines().skip(1) {
            let parts: Vec<&str> = line.rsplitn(3, ',').collect();
            assert_eq!(parts.len(), 3, "{id}: bad CSV row {line:?}");
            let y: f64 = parts[0].parse().expect("y parses");
            let x: f64 = parts[1].parse().expect("x parses");
            assert!(x.is_finite() && y.is_finite(), "{id}: non-finite point");
        }
    }
}

#[test]
fn cli_round_trips_the_fast_artifacts() {
    for id in FAST_ARTIFACTS {
        let inv = cli::parse(&[id.to_string(), "--scale".into(), "small".into()]).unwrap();
        assert_eq!(inv.ids, vec![id]);
        assert_eq!(inv.scale, Scale::Small);
    }
}
