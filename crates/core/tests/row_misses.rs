//! Every fetch of every beacon finds its route in the day's snapshot, and
//! the snapshot stores no route a beacon does not fetch.
//!
//! `Study` declares, for each client that fires on a day, the sites the
//! measurement policy answers that client's beacons with as the row the
//! day's `RouteSnapshot` holds; a fetch of any other site would still be
//! routed correctly, on the spot, and counted in
//! `netsim_route_memo_misses_total`. So zero misses over whole days says
//! the rows cover every fetch — the day computes no route a second time,
//! and none behind the snapshot's back — and a count of stored unicast
//! decisions (`netsim_route_memo_unicast_decisions_total`) equal to the
//! distinct (client, site) pairs the joined rows fetched says the rows
//! hold nothing more.
//!
//! A dedicated integration-test binary, one test: nothing else records
//! into the global registry while the capture windows are open.

use std::collections::HashSet;

use anycast_beacon::Target;
use anycast_core::{Study, StudyConfig};
use anycast_netsim::{Day, WorldGenConfig};
use anycast_workload::{Scenario, ScenarioConfig};

/// Runs days 0–1 and returns `(fetch attempts, memo hits, memo misses)`,
/// after checking that the days stored exactly the unicast decisions
/// their rows fetched.
fn two_days(cfg: ScenarioConfig, study: StudyConfig) -> (u64, u64, u64) {
    let scenario = Scenario::build(cfg).expect("valid config");
    let (fetched, delta) = anycast_obs::capture(|| {
        let mut study = Study::new(scenario, study);
        study.run_days(Day(0), 2);
        assert!(!study.dataset().is_empty());
        // The distinct (day, client, unicast site) triples of the rows:
        // one snapshot a day, so one stored decision each.
        let pairs: HashSet<_> = study
            .dataset()
            .measurements()
            .iter()
            .filter_map(|m| match m.target {
                Target::Unicast(site) => Some((m.day, m.prefix, site)),
                Target::Anycast => None,
            })
            .collect();
        pairs.len() as u64
    });
    assert_eq!(
        delta.counter("netsim_route_memo_unicast_decisions_total"),
        fetched,
        "stored unicast decisions"
    );
    (
        delta.counter("beacon_fetch_attempts_total"),
        delta.counter("netsim_route_memo_hits_total"),
        delta.counter("netsim_route_memo_misses_total"),
    )
}

#[test]
fn every_fetch_of_a_failure_free_campaign_is_a_row_hit() {
    anycast_obs::set_enabled(true);
    let default_world = || ScenarioConfig::small(7);
    let policy_world = || {
        let mut cfg = ScenarioConfig::small(7);
        cfg.net.worldgen = Some(WorldGenConfig::with_ases(1_000));
        cfg
    };
    // More candidates than the small world has sites: the rows are the
    // whole catalog, not twenty of it.
    let wide = StudyConfig {
        candidates: 20,
        ..StudyConfig::default()
    };
    let narrow = StudyConfig {
        candidates: 3,
        ..StudyConfig::default()
    };
    for (world, cfg, study) in [
        ("default", default_world(), StudyConfig::default()),
        ("policy", policy_world(), StudyConfig::default()),
        ("default, 20 candidates", default_world(), wide),
        ("policy, 3 candidates", policy_world(), narrow),
    ] {
        for workers in [1, 2] {
            let (attempts, hits, misses) = two_days(cfg.clone(), StudyConfig { workers, ..study });
            assert!(attempts > 1_000, "{world}: only {attempts} fetches");
            assert_eq!(misses, 0, "{world}, {workers} worker(s)");
            assert_eq!(hits, attempts, "{world}, {workers} worker(s)");
        }
    }
}
